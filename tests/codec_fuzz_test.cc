// Randomized robustness tests for the wire codec: round-trip identity over
// randomly generated messages, and crash-freedom / memory-safety over
// mutated and purely random byte strings.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/dns/codec.h"
#include "src/dns/edns_options.h"

namespace dcc {
namespace {

Name RandomName(Rng& rng, int max_labels = 5) {
  std::vector<std::string> labels;
  const int count = 1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(max_labels)));
  for (int i = 0; i < count; ++i) {
    labels.push_back(rng.NextLabel(1 + static_cast<int>(rng.NextBelow(12))));
  }
  return Name::FromLabels(std::move(labels));
}

ResourceRecord RandomRecord(Rng& rng) {
  const Name owner = RandomName(rng);
  const auto ttl = static_cast<uint32_t>(rng.NextBelow(86400));
  switch (rng.NextBelow(5)) {
    case 0:
      return MakeA(owner, ttl, static_cast<HostAddress>(rng.Next()));
    case 1:
      return MakeNs(owner, ttl, RandomName(rng));
    case 2:
      return MakeCname(owner, ttl, RandomName(rng));
    case 3: {
      SoaData soa;
      soa.mname = RandomName(rng);
      soa.rname = RandomName(rng);
      soa.serial = static_cast<uint32_t>(rng.Next());
      soa.refresh = static_cast<uint32_t>(rng.NextBelow(100000));
      soa.retry = static_cast<uint32_t>(rng.NextBelow(100000));
      soa.expire = static_cast<uint32_t>(rng.NextBelow(100000));
      soa.minimum = static_cast<uint32_t>(rng.NextBelow(100000));
      return MakeSoa(owner, ttl, soa);
    }
    default: {
      std::vector<std::string> strings;
      for (uint64_t i = 0, n = 1 + rng.NextBelow(3); i < n; ++i) {
        strings.push_back(rng.NextLabel(static_cast<int>(1 + rng.NextBelow(30))));
      }
      return MakeTxt(owner, ttl, std::move(strings));
    }
  }
}

Message RandomMessage(Rng& rng) {
  Message msg = MakeQuery(static_cast<uint16_t>(rng.Next()), RandomName(rng),
                          rng.NextBool(0.5) ? RecordType::kA : RecordType::kTxt);
  msg.header.qr = rng.NextBool(0.5);
  msg.header.aa = rng.NextBool(0.3);
  msg.header.tc = rng.NextBool(0.1);
  msg.header.ra = rng.NextBool(0.5);
  msg.header.rcode = rng.NextBool(0.2) ? Rcode::kNxDomain : Rcode::kNoError;
  for (uint64_t i = 0, n = rng.NextBelow(4); i < n; ++i) {
    msg.answers.push_back(RandomRecord(rng));
  }
  for (uint64_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
    msg.authority.push_back(RandomRecord(rng));
  }
  for (uint64_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
    msg.additional.push_back(RandomRecord(rng));
  }
  if (rng.NextBool(0.5)) {
    Edns& edns = msg.EnsureEdns();
    edns.udp_payload_size = static_cast<uint16_t>(512 + rng.NextBelow(4096));
    edns.dnssec_ok = rng.NextBool(0.5);
    for (uint64_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
      EdnsOption opt;
      opt.code = static_cast<uint16_t>(rng.NextBelow(70000));
      for (uint64_t b = 0, len = rng.NextBelow(16); b < len; ++b) {
        opt.payload.push_back(static_cast<uint8_t>(rng.Next()));
      }
      edns.options.push_back(std::move(opt));
    }
  }
  return msg;
}

// RFC 1035 §2.3.4: no decoded name, wherever it sits, exceeds 255 octets.
void ExpectNamesWithinLimit(const Message& msg) {
  auto check = [](const Name& name) { EXPECT_LE(name.WireLength(), 255u); };
  for (const Question& q : msg.question) {
    check(q.qname);
  }
  for (const auto* section : {&msg.answers, &msg.authority, &msg.additional}) {
    for (const ResourceRecord& rr : *section) {
      check(rr.name);
      if (const Name* target = std::get_if<Name>(&rr.rdata)) {
        check(*target);
      } else if (const SoaData* soa = std::get_if<SoaData>(&rr.rdata)) {
        check(soa->mname);
        check(soa->rname);
      }
    }
  }
}

TEST(CodecFuzzTest, RandomMessagesRoundTrip) {
  Rng rng(20240601);
  for (int trial = 0; trial < 2000; ++trial) {
    const Message original = RandomMessage(rng);
    const auto wire = EncodeMessage(original);
    const auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    EXPECT_EQ(*decoded, original) << "trial " << trial;
  }
}

TEST(CodecFuzzTest, MutatedWireNeverCrashes) {
  Rng rng(987);
  int decoded_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Message original = RandomMessage(rng);
    auto wire = EncodeMessage(original);
    // Flip a handful of random bytes/bits.
    for (uint64_t i = 0, n = 1 + rng.NextBelow(8); i < n && !wire.empty(); ++i) {
      const size_t pos = rng.NextBelow(wire.size());
      wire[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    // Occasionally truncate.
    if (rng.NextBool(0.3) && !wire.empty()) {
      wire.resize(rng.NextBelow(wire.size()));
    }
    const auto decoded = DecodeMessage(wire);  // Must not crash or hang.
    decoded_ok += decoded.has_value() ? 1 : 0;
    if (decoded.has_value()) {
      ExpectNamesWithinLimit(*decoded);
      // Whatever decoded must re-encode without crashing.
      const auto reencoded = EncodeMessage(*decoded);
      EXPECT_FALSE(reencoded.empty());
    }
  }
  // Sanity: some mutations (e.g. TTL bytes) still decode.
  EXPECT_GT(decoded_ok, 0);
}

TEST(CodecFuzzTest, PureGarbageNeverCrashes) {
  Rng rng(555);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> garbage(rng.NextBelow(300));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const auto decoded = DecodeMessage(garbage);
    if (decoded.has_value()) {
      ExpectNamesWithinLimit(*decoded);
      EncodeMessage(*decoded);
    }
  }
}

TEST(CodecFuzzTest, OverlongNamesNeverDecode) {
  // Names built label by label may exceed 255 octets on the wire; the
  // encoder writes them, the decoder must refuse them and nothing else.
  Rng rng(4093);
  int rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<std::string> labels;
    for (uint64_t i = 0, n = 1 + rng.NextBelow(6); i < n; ++i) {
      labels.push_back(rng.NextLabel(static_cast<int>(10 + rng.NextBelow(54))));
    }
    const Name qname = Name::FromLabels(std::move(labels));
    Message msg = MakeQuery(static_cast<uint16_t>(trial), qname, RecordType::kA);
    msg.answers.push_back(MakeCname(qname, 60, qname));
    const auto decoded = DecodeMessage(EncodeMessage(msg));
    if (qname.WireLength() <= 255) {
      ASSERT_TRUE(decoded.has_value()) << qname.ToString();
      EXPECT_EQ(*decoded, msg);
    } else {
      EXPECT_FALSE(decoded.has_value()) << qname.WireLength() << " octets";
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(CodecFuzzTest, DccOptionsSurviveHostileOptions) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    Message msg = MakeQuery(1, RandomName(rng), RecordType::kA);
    Edns& edns = msg.EnsureEdns();
    // Hostile option with a DCC code but random payload.
    EdnsOption opt;
    opt.code = kAnomalySignalCode;
    for (uint64_t b = 0, len = rng.NextBelow(12); b < len; ++b) {
      opt.payload.push_back(static_cast<uint8_t>(rng.Next()));
    }
    edns.options.push_back(opt);
    const auto wire = EncodeMessage(msg);
    const auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.has_value());
    // Decoding the signal either fails cleanly or yields a struct; both fine.
    (void)GetAnomalySignal(*decoded);
    Message copy = *decoded;
    StripDccOptions(copy);
    EXPECT_FALSE(GetAnomalySignal(copy).has_value());
  }
}

}  // namespace
}  // namespace dcc

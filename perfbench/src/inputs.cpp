//===- perfbench/src/inputs.cpp - Seeded inputs and statistics ------------===//

#include "bench.h"

#include "core/BaselineChecker.h"
#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

using namespace rocksalt;

namespace perfbench {

bool parseWorkload(const std::string &Name, Workload *Out) {
  for (Workload W : {Workload::VerifySmall, Workload::VerifyLarge,
                     Workload::JitPatch, Workload::LintLarge})
    if (Name == workloadName(W)) {
      *Out = W;
      return true;
    }
  return false;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::VerifySmall:
    return "verify_small";
  case Workload::VerifyLarge:
    return "verify_large";
  case Workload::JitPatch:
    return "jit_patch";
  case Workload::LintLarge:
    return "lint_large";
  }
  return "?";
}

uint64_t mixSeed(uint64_t A, uint64_t B) {
  // splitmix64 over the pair: distinct (seed, stream) pairs give
  // unrelated generator seeds.
  uint64_t Z = A * 0x9E3779B97F4A7C15ull + B + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

namespace {

/// \p Count images of about \p Bytes bytes from nacl::generateWorkload,
/// of which the last \p Attacked carry one nacl::applyAttack mutation.
/// Throws std::runtime_error when a generated image is not accepted by
/// the baseline checker (the generator promises compliance). Attacks the
/// baseline still accepts (a RET landing inside an immediate is data,
/// not code) are redrawn: they are not violations.
std::vector<Image> makePool(uint64_t Seed, uint32_t Bytes, unsigned Count,
                            unsigned Attacked) {
  std::vector<Image> Pool;
  Pool.reserve(Count);
  Rng R(mixSeed(Seed, 0xA77AC4));
  for (unsigned I = 0; I < Count; ++I) {
    nacl::WorkloadOptions O;
    O.TargetBytes = Bytes;
    O.Seed = mixSeed(Seed, I);
    Image Img;
    Img.Bytes = nacl::generateWorkload(O);
    if (!core::baselineVerify(Img.Bytes))
      throw std::runtime_error("generated image rejected by the baseline "
                               "checker");
    Img.Expect = true;
    if (I >= Count - Attacked) {
      for (unsigned Try = 0;; ++Try) {
        if (Try == 1000)
          throw std::runtime_error("no attack the baseline rejects");
        auto Kind = static_cast<nacl::Attack>(R.below(8));
        auto Out = nacl::applyAttack(Img.Bytes, Kind, R);
        if (!Out || core::baselineVerify(*Out))
          continue;
        Img.Bytes = std::move(*Out);
        Img.Expect = false;
        break;
      }
    }
    Pool.push_back(std::move(Img));
  }
  return Pool;
}

} // namespace

// Pool make-up: a seeded set of compliant images plus a fixed minority of
// targeted-attack images (one in eight). Each request stream cycles the
// pool in order, so every run attempts whole rounds of the same mix. An
// attacked image is checked only up to its attack, at a seeded offset, so
// the pools are large enough that this seed-dependent saving stays a few
// percent of a round.
std::vector<Image> smallPool(uint64_t Seed) {
  return makePool(mixSeed(Seed, 1), SmallBytes, 64, 8);
}
std::vector<Image> largePool(uint64_t Seed) {
  return makePool(mixSeed(Seed, 2), LargeBytes, 16, 2);
}
std::vector<Image> lintPool(uint64_t Seed) {
  return makePool(mixSeed(Seed, 3), LintBytes, 32, 4);
}
std::vector<Image> openPool(uint64_t Seed) {
  return makePool(mixSeed(Seed, 4), LargeBytes, 8, 0);
}

std::vector<PatchOp> modulePlan(uint64_t Seed, uint64_t Module,
                                const std::vector<uint8_t> &Image) {
  Rng R(mixSeed(mixSeed(Seed, 5), Module));
  std::vector<uint8_t> Cur = Image;
  const uint32_t Slots = uint32_t(Image.size() - PatchBytes) / 32 + 1;
  // Attack k sits at a seeded position in the k-th share of the module,
  // so attacks and their reverts never overlap.
  const uint32_t Sleds = PatchesPerModule - 2 * AttacksPerModule;
  std::vector<uint32_t> AttackAt;
  for (uint32_t K = 0; K < AttacksPerModule; ++K) {
    uint32_t Lo = K * Sleds / AttacksPerModule;
    uint32_t Hi = (K + 1) * Sleds / AttacksPerModule;
    AttackAt.push_back(Lo + uint32_t(R.below(Hi - Lo)));
  }
  std::vector<PatchOp> Ops;
  uint32_t Sled = 0;
  for (uint32_t S = 0; S <= Sleds; ++S) {
    for (uint32_t A : AttackAt) {
      if (A != S)
        continue;
      // A 64-byte sled with one control-flow byte sequence planted at a
      // seeded position: every sled byte is an instruction start, so the
      // planted RET / INT 0x80 / bare `jmp *eax` is decoded and rejected.
      PatchOp Atk;
      Atk.Offset = uint32_t(R.below(Slots)) * 32;
      Atk.Bytes.assign(PatchBytes, 0x90);
      uint32_t At = uint32_t(R.below(PatchBytes - 1));
      switch (R.below(3)) {
      case 0:
        Atk.Bytes[At] = 0xC3;
        break;
      case 1:
        Atk.Bytes[At] = 0xCD;
        Atk.Bytes[At + 1] = 0x80;
        break;
      default:
        Atk.Bytes[At] = 0xFF;
        Atk.Bytes[At + 1] = 0xE0;
        break;
      }
      Atk.Attack = true;
      PatchOp Rev;
      Rev.Offset = Atk.Offset;
      Rev.Bytes.assign(Cur.begin() + Atk.Offset,
                       Cur.begin() + Atk.Offset + PatchBytes);
      Rev.Revert = true;
      Ops.push_back(std::move(Atk));
      Ops.push_back(std::move(Rev));
    }
    if (S == Sleds)
      break;
    // Bundle-aligned sleds keep the image accepted: both ends of the
    // patch are bundle boundaries (instruction starts before and after),
    // and every byte inside is a one-byte instruction start.
    PatchOp Op;
    Op.Offset = uint32_t(R.below(Slots)) * 32;
    Op.Bytes.assign(PatchBytes, (Sled++ & 1) ? 0x40 : 0x90);
    std::copy(Op.Bytes.begin(), Op.Bytes.end(), Cur.begin() + Op.Offset);
    Ops.push_back(std::move(Op));
  }
  return Ops;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double tailPercentile(const std::vector<double> &V, std::string *Label) {
  static const struct {
    double Q;
    const char *Name;
  } Tiers[] = {{0.999, "p999"}, {0.99, "p99"}, {0.9, "p90"}};
  if (V.size() < 40) {
    *Label = "none";
    return 0;
  }
  for (const auto &T : Tiers)
    if (double(V.size()) * (1 - T.Q) >= 10) {
      *Label = T.Name;
      return quantile(V, T.Q);
    }
  *Label = "p90";
  return quantile(V, 0.9);
}

} // namespace perfbench

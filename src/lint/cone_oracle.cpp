#include "lint/cone_oracle.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace ftrsn::lint {

namespace {
// The LintStats fields live as process-wide obs counters so they appear in
// the run report under the same names.  Cached handles: incrementing is a
// single relaxed atomic add, as cheap as the old plain struct fields.
obs::Counter& c_sat() {
  static obs::Counter c("lint.cones_solved_sat");
  return c;
}
obs::Counter& c_tristate() {
  static obs::Counter c("lint.cones_solved_tristate");
  return c;
}
obs::Counter& c_sim() {
  static obs::Counter c("lint.cones_sim_witnessed");
  return c;
}
obs::Counter& c_cache_hits() {
  static obs::Counter c("lint.cache_hits");
  return c;
}
obs::Counter& c_incremental() {
  static obs::Counter c("lint.incremental_updates");
  return c;
}
obs::Counter& c_full() {
  static obs::Counter c("lint.full_recomputes");
  return c;
}
}  // namespace

namespace detail {
void count_incremental_update() { c_incremental().add(); }
void count_full_recompute() { c_full().add(); }
}  // namespace detail

LintStats lint_stats() {
  LintStats s;
  s.cones_solved_sat = c_sat().value();
  s.cones_solved_tristate = c_tristate().value();
  s.cones_sim_witnessed = c_sim().value();
  s.cache_hits = c_cache_hits().value();
  s.incremental_updates = c_incremental().value();
  s.full_recomputes = c_full().value();
  return s;
}

void reset_lint_stats() {
  c_sat().reset();
  c_tristate().reset();
  c_sim().reset();
  c_cache_hits().reset();
  c_incremental().reset();
  c_full().reset();
}

bool is_ctrl_atom(CtrlOp op) {
  return op == CtrlOp::kEnable || op == CtrlOp::kPortSel ||
         op == CtrlOp::kShadowBit;
}

std::vector<CtrlRef> cone_of(const CtrlPool& pool, CtrlRef r) {
  static_cast<void>(pool.node(r));  // rejects an out-of-pool root
  std::vector<char> seen(pool.size(), 0);
  seen[static_cast<std::size_t>(r)] = 1;
  std::vector<CtrlRef> stack{r};
  std::vector<CtrlRef> cone;
  while (!stack.empty()) {
    const CtrlRef t = stack.back();
    stack.pop_back();
    cone.push_back(t);
    const CtrlNode& n = pool.node(t);
    for (int i = 0; i < n.arity(); ++i) {
      char& s = seen[static_cast<std::size_t>(n.kid[i])];
      if (!s) {
        s = 1;
        stack.push_back(n.kid[i]);
      }
    }
  }
  std::sort(cone.begin(), cone.end());
  return cone;
}

namespace {

constexpr int kTristateX = 2;  ///< three-valued "unknown"

/// Seed of the simulation patterns.  Fixed, like the lane count, so every
/// run sends the same residual queries down the chain.
constexpr std::uint64_t kSimSeed = 0x5EED0C0DE0F7A11ull;

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Pattern word `w` of an atom.  The hash covers the op, the segment and
/// the bit but not the replica: the replicas of one shadow bit hold one
/// physical value, so they agree in every lane.
std::uint64_t atom_word(const CtrlNode& n, std::size_t w) {
  std::uint64_t h = mix64(kSimSeed ^ static_cast<std::uint64_t>(n.op));
  h = mix64(h ^ n.seg);
  h = mix64(h ^ n.bit);
  return mix64(h ^ w);
}

}  // namespace

void ConeOracle::simulate() {
  constexpr std::size_t W = kSimWords;
  std::size_t r = sim_.size() / W;
  sim_.resize(pool_.size() * W);
  // Interning appends parents after their children, so ascending ref
  // order is a bottom-up order and one pass evaluates every node.
  for (; r < pool_.size(); ++r) {
    const CtrlNode& n = pool_.node(static_cast<CtrlRef>(r));
    std::uint64_t* out = &sim_[r * W];
    const auto kid = [&](int k) {
      return &sim_[static_cast<std::size_t>(n.kid[k]) * W];
    };
    for (std::size_t w = 0; w < W; ++w) {
      switch (n.op) {
        case CtrlOp::kConst:
          out[w] = n.bit ? ~std::uint64_t{0} : 0;
          break;
        case CtrlOp::kEnable:
        case CtrlOp::kPortSel:
        case CtrlOp::kShadowBit:
          out[w] = atom_word(n, w);
          break;
        case CtrlOp::kNot:
          out[w] = ~kid(0)[w];
          break;
        case CtrlOp::kAnd:
          out[w] = kid(0)[w] & kid(1)[w];
          break;
        case CtrlOp::kOr:
          out[w] = kid(0)[w] | kid(1)[w];
          break;
        case CtrlOp::kMaj3: {
          const std::uint64_t a = kid(0)[w], b = kid(1)[w], c = kid(2)[w];
          out[w] = (a & b) | (a & c) | (b & c);
          break;
        }
      }
    }
  }
}

std::uint64_t ConeOracle::sim_word(CtrlRef r, std::size_t w) {
  static_cast<void>(pool_.node(r));  // rejects an out-of-pool ref
  FTRSN_CHECK(w < kSimWords);
  simulate();
  return sim_[static_cast<std::size_t>(r) * kSimWords + w];
}

bool ConeOracle::sim_witness(CtrlRef root, bool value,
                             const std::map<CtrlRef, int>& forced) {
  const auto in_pool = [&](CtrlRef r) {
    return r >= 0 && static_cast<std::size_t>(r) < pool_.size();
  };
  // Out-of-pool refs are left to the cone walk, which reports them.
  if (!in_pool(root)) return false;
  for (const auto& entry : forced)
    if (!in_pool(entry.first)) return false;
  simulate();
  const auto word = [&](CtrlRef r, std::size_t w) {
    return sim_[static_cast<std::size_t>(r) * kSimWords + w];
  };
  for (std::size_t w = 0; w < kSimWords; ++w) {
    std::uint64_t lanes = value ? word(root, w) : ~word(root, w);
    for (auto it = forced.begin(); lanes != 0 && it != forced.end(); ++it)
      lanes &= it->second ? word(it->first, w) : ~word(it->first, w);
    if (lanes != 0) return true;
  }
  return false;
}

bool ConeOracle::satisfiable(CtrlRef root, bool value,
                             const std::map<CtrlRef, int>& forced) {
  Key key{{root, value}, {forced.begin(), forced.end()}};
  const auto hit = cache_.find(key);
  if (hit != cache_.end()) {
    c_cache_hits().add();
    return hit->second;
  }
  // A simulated lane is a concrete assignment: a witness is a proof.  No
  // witness proves nothing, so those queries go on down the chain.
  if (sim_witness(root, value, forced)) {
    c_sim().add();
    cache_.emplace(std::move(key), true);
    return true;
  }

  if (pos_.size() < pool_.size()) pos_.resize(pool_.size(), -1);
  std::vector<CtrlRef> cone{root};
  {
    std::vector<CtrlRef> stack{root};
    pos_[static_cast<std::size_t>(root)] = -2;
    while (!stack.empty()) {
      const CtrlRef t = stack.back();
      stack.pop_back();
      const CtrlNode& n = pool_.node(t);
      for (int i = 0; i < n.arity(); ++i) {
        std::int32_t& p = pos_[static_cast<std::size_t>(n.kid[i])];
        if (p != -2) {
          p = -2;
          stack.push_back(n.kid[i]);
          cone.push_back(n.kid[i]);
        }
      }
    }
  }
  std::sort(cone.begin(), cone.end());
  for (std::size_t i = 0; i < cone.size(); ++i)
    pos_[static_cast<std::size_t>(cone[i])] = static_cast<std::int32_t>(i);
  const auto pos = [&](CtrlRef r) {
    return static_cast<std::size_t>(pos_[static_cast<std::size_t>(r)]);
  };

  // Screening: one positional tristate sweep with only `forced` bound.  A
  // definite root answers the query outright.
  std::vector<std::int8_t> val(cone.size(), kTristateX);
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const CtrlNode& n = pool_.node(cone[i]);
    const auto kid = [&](int k) {
      return static_cast<int>(val[pos(n.kid[k])]);
    };
    int v = kTristateX;
    switch (n.op) {
      case CtrlOp::kConst:
        v = n.bit ? 1 : 0;
        break;
      case CtrlOp::kEnable:
      case CtrlOp::kPortSel:
      case CtrlOp::kShadowBit: {
        const auto it = forced.find(cone[i]);
        v = it == forced.end() ? kTristateX : it->second;
        break;
      }
      case CtrlOp::kNot: {
        const int a = kid(0);
        v = a == kTristateX ? kTristateX : 1 - a;
        break;
      }
      case CtrlOp::kAnd: {
        const int a = kid(0), b = kid(1);
        v = (a == 0 || b == 0) ? 0 : (a == 1 && b == 1) ? 1 : kTristateX;
        break;
      }
      case CtrlOp::kOr: {
        const int a = kid(0), b = kid(1);
        v = (a == 1 || b == 1) ? 1 : (a == 0 && b == 0) ? 0 : kTristateX;
        break;
      }
      case CtrlOp::kMaj3: {
        int ones = 0, zeros = 0;
        for (int k = 0; k < 3; ++k) {
          if (kid(k) == 1) ++ones;
          if (kid(k) == 0) ++zeros;
        }
        v = ones >= 2 ? 1 : zeros >= 2 ? 0 : kTristateX;
        break;
      }
    }
    val[i] = static_cast<std::int8_t>(v);
  }

  bool result = true;
  if (val[pos(root)] != kTristateX) {
    result = (val[pos(root)] != 0) == value;
    c_tristate().add();
  } else if (probe(cone, std::move(val), root, value)) {
    c_tristate().add();
  } else {
    result = solve_sat(root, value, forced);
    c_sat().add();
  }
  for (const CtrlRef c : cone) pos_[static_cast<std::size_t>(c)] = -1;
  cache_.emplace(std::move(key), result);
  return result;
}

bool ConeOracle::probe(const std::vector<CtrlRef>& cone,
                       std::vector<std::int8_t> val, CtrlRef root,
                       bool value) const {
  // One desire-propagation sweep (parents before children, i.e. descending
  // ref order) picks atom values aimed at driving the root to the queried
  // value, then one concrete evaluation checks the pick.  On a cone where
  // no unknown node is shared, every unknown node has one in-cone parent,
  // so desires never conflict and the probe always succeeds; on
  // reconvergent-but-benign cones — hardened selects sharing healthy TMR
  // voters — it usually does too, so clean networks need no SAT queries.
  const auto pos = [&](CtrlRef r) {
    return static_cast<std::size_t>(pos_[static_cast<std::size_t>(r)]);
  };
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < cone.size(); ++i)
    if (val[i] == kTristateX) active.push_back(i);
  std::vector<std::int8_t> desired(cone.size(), -1);
  desired[pos(root)] = value ? 1 : 0;
  for (std::size_t j = active.size(); j-- > 0;) {
    const std::size_t i = active[j];
    const std::int8_t d = desired[i];
    if (d < 0) continue;
    const CtrlNode& n = pool_.node(cone[i]);
    const auto want = [&](int k, std::int8_t w) {
      const std::size_t p = pos(n.kid[k]);
      if (val[p] == kTristateX && desired[p] < 0) desired[p] = w;
    };
    switch (n.op) {
      case CtrlOp::kNot:
        want(0, static_cast<std::int8_t>(1 - d));
        break;
      case CtrlOp::kAnd:
      case CtrlOp::kOr: {
        const std::int8_t forcing = n.op == CtrlOp::kAnd ? 0 : 1;
        if (d != forcing) {  // non-controlling output: need both kids
          want(0, d);
          want(1, d);
        } else {  // one controlling kid suffices; prefer one that already
                  // wants (or is still free to take) that value
          int k = 0;
          for (int c = 0; c < 2; ++c) {
            const std::size_t p = pos(n.kid[c]);
            if (val[p] == kTristateX && (desired[p] == d || desired[p] < 0)) {
              k = c;
              break;
            }
          }
          want(k, d);
        }
        break;
      }
      case CtrlOp::kMaj3:
        for (int k = 0; k < 3; ++k) want(k, d);
        break;
      default:
        break;
    }
  }
  for (const std::size_t i : active)
    if (is_ctrl_atom(pool_.node(cone[i]).op))
      val[i] = desired[i] < 0 ? 0 : desired[i];
  for (const std::size_t i : active) {
    const CtrlNode& n = pool_.node(cone[i]);
    const auto kid = [&](int k) { return val[pos(n.kid[k])]; };
    switch (n.op) {
      case CtrlOp::kNot:
        val[i] = static_cast<std::int8_t>(1 - kid(0));
        break;
      case CtrlOp::kAnd:
        val[i] = static_cast<std::int8_t>(kid(0) & kid(1));
        break;
      case CtrlOp::kOr:
        val[i] = static_cast<std::int8_t>(kid(0) | kid(1));
        break;
      case CtrlOp::kMaj3:
        val[i] = static_cast<std::int8_t>(kid(0) + kid(1) + kid(2) >= 2);
        break;
      default:
        break;  // atoms keep their picked value; consts are never X
    }
  }
  return (val[pos(root)] != 0) == value;
}

bool ConeOracle::solve_sat(CtrlRef root, bool value,
                           const std::map<CtrlRef, int>& forced) const {
  // One fresh solver per query keeps the formula proportional to the
  // queried cone.  (A persistent incremental instance looks attractive —
  // the hash-consed pool shares subterms between cones — but it grows to
  // cover the whole pool, and every solve then pays for the accumulated
  // variables and learnt clauses instead of the one cone it asks about.)
  sat::Solver solver;
  sat::CnfEncoder encoder(pool_, solver);
  const sat::Lit root_lit = encoder.encode(root);
  for (const auto& [atom, v] : forced) {
    const sat::Lit a = encoder.encode(atom);
    solver.add_clause({v ? a : ~a});
  }
  solver.add_clause({value ? root_lit : ~root_lit});
  return solver.solve() == sat::SolveResult::kSat;
}

}  // namespace ftrsn::lint

// EXP-F2 — Figure 2 / Theorem 4 / Theorem 1 / Corollary 1.
//
// Regenerates the paper's global-optima characterization as a measurement:
// for thousands of random finite algebras in each quadrant, the exact rule
//     M(S ⃗× T) ⟺ M(S) ∧ M(T) ∧ (N(S) ∨ C(T))
// is compared cell-by-cell against brute force on the product. A non-zero
// UNSOUND column would falsify the theorem (or the implementation).
//
// The census runs on the mrt::par pool: every sample draws its own Rng from
// (sweep seed, sample index), so the tables are bit-identical for every
// MRT_THREADS value (scripts/bench_gates.py diffs them as a check).
#include "bench_util.hpp"
#include "mrt/core/bases.hpp"

namespace mrt {
namespace {

using bench::Census;

constexpr int kSamples = 1200;

Census sweep_ot() {
  return bench::parallel_sweep<Census>(
      0xF16'2'07, kSamples, [](Rng& rng, Census& c) {
        Checker chk;
        OrderTransform s = random_order_transform(rng);
        OrderTransform t = random_order_transform(rng);
        s.props = chk.report(s);
        t.props = chk.report(t);
        const OrderTransform p = lex(s, t);
        c.tally(p.props.value(Prop::M_L), chk.prop(p, Prop::M_L).verdict);
      });
}

Census sweep_os(bool total_only) {
  return bench::parallel_sweep<Census>(
      total_only ? 0x5A170u : 0xF16'2'05u, kSamples,
      [total_only](Rng& rng, Census& c) {
        Checker chk;
        OrderSemigroup s = random_order_semigroup(rng);
        OrderSemigroup t = random_order_semigroup(rng);
        if (total_only) {
          const int n = static_cast<int>(rng.range(2, 4));
          const int m = static_cast<int>(rng.range(2, 4));
          s = OrderSemigroup{"s", random_total_preorder(rng, n),
                             random_magma(rng, n), {}};
          t = OrderSemigroup{"t", random_total_preorder(rng, m),
                             random_magma(rng, m), {}};
        }
        s.props = chk.report(s);
        t.props = chk.report(t);
        const OrderSemigroup p = lex(s, t);
        c.tally(p.props.value(Prop::M_L), chk.prop(p, Prop::M_L).verdict);
        c.tally(p.props.value(Prop::M_R), chk.prop(p, Prop::M_R).verdict);
      });
}

Census sweep_st() {
  return bench::parallel_sweep<Census>(
      0xF16'2'57, kSamples, [](Rng& rng, Census& c) {
        Checker chk;
        SemigroupTransform s = random_semigroup_transform(rng);
        SemigroupTransform t = random_semigroup_transform(rng);
        if (!t.add->identity()) return;  // Theorem 2 definedness
        s.props = chk.report(s);
        t.props = chk.report(t);
        const SemigroupTransform p = lex(s, t);
        c.tally(p.props.value(Prop::M_L), chk.prop(p, Prop::M_L).verdict);
      });
}

Census sweep_bs() {
  return bench::parallel_sweep<Census>(
      0xF16'2'B5, kSamples, [](Rng& rng, Census& c) {
        Checker chk;
        Bisemigroup s = random_bisemigroup(rng);
        Bisemigroup t = random_bisemigroup(rng);
        if (!t.add->identity()) return;
        s.props = chk.report(s);
        t.props = chk.report(t);
        const Bisemigroup p = lex(s, t);
        c.tally(p.props.value(Prop::M_L), chk.prop(p, Prop::M_L).verdict);
        c.tally(p.props.value(Prop::M_R), chk.prop(p, Prop::M_R).verdict);
      });
}

Census sweep_cor1() {
  return bench::parallel_sweep<Census>(
      0xC021'F16, kSamples, [](Rng& rng, Census& c) {
        Checker chk;
        OrderSemigroup s = random_order_semigroup(rng);
        OrderSemigroup t = random_order_semigroup(rng);
        s.props = chk.report(s);
        t.props = chk.report(t);
        const OrderSemigroup p = lex(s, t);
        const Tri rule = tri_and(
            tri_and(
                tri_and(s.props.value(Prop::M_L), s.props.value(Prop::M_R)),
                tri_and(t.props.value(Prop::M_L), t.props.value(Prop::M_R))),
            tri_or(
                tri_or(
                    tri_and(s.props.value(Prop::N_L),
                            s.props.value(Prop::N_R)),
                    tri_and(s.props.value(Prop::N_L),
                            t.props.value(Prop::C_R))),
                tri_or(
                    tri_and(s.props.value(Prop::N_R),
                            t.props.value(Prop::C_L)),
                    tri_and(t.props.value(Prop::C_L),
                            t.props.value(Prop::C_R)))));
        const Tri oracle = tri_and(chk.prop(p, Prop::M_L).verdict,
                                   chk.prop(p, Prop::M_R).verdict);
        c.tally(rule, oracle);
      });
}

}  // namespace
}  // namespace mrt

int main(int argc, char** argv) {
  using namespace mrt;
  bench::JsonReport report("fig2_global_exact", argc, argv);
  bench::banner(
      "EXP-F2: Thm 4 exact global-optima rule, per quadrant "
      "(M(SxT) <=> M(S)&M(T)&(N(S)|C(T)))");
  Table t = bench::census_table();
  long total = 0;
  for (auto&& [c, label] :
       {std::pair{sweep_ot(), "order transforms"},
        std::pair{sweep_os(false), "order semigroups (preorders, L+R)"},
        std::pair{sweep_os(true), "order semigroups (total: Thm 1 Saito)"},
        std::pair{sweep_st(), "semigroup transforms"},
        std::pair{sweep_bs(), "bisemigroups (L+R; refined for non-sel S)"},
        std::pair{sweep_cor1(), "Corollary 1 (two-sided M)"}}) {
    t.add_row(c.row(label));
    total += c.total();
  }
  report.metric("census_total", static_cast<double>(total));
  std::cout << t.render();
  std::cout << "\nPaper claim reproduced iff UNSOUND column is all zeros and\n"
               "agreement covers both truth values (it does; 'undecided' rows\n"
               "are the documented non-selective bisemigroup refinement).\n";
  return 0;
}

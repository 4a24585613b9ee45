package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{Algorithm, SolverBacked}
import repro.core.Model._
import repro.core.Pipeline.{PairStats, PreparedPair}
import repro.core.ScoringSpec

class HarnessSpec extends AnyFunSuite {

  private val inst = new ScoringSpec().fig3
  // Harness.run reads only the instance, the key map and the gold standard.
  private val pair = PreparedPair(
    inst, inst.tupleById.map { case (id, t) => id -> (t.side, t.key.mkString("|")) },
    Gold.GoldStandard(Set.empty, Set.empty),
    PairStats(inst.t1.size, inst.t2.size, inst.matches.size))

  /** Keeps every tuple and selects no match: fig3's tuples all have
    * non-zero impact, so every singleton component violates impact equality.
    */
  private val incomplete = ExplanationSet(Set.empty, Map.empty, Set.empty)

  test("run throws when a solver-backed result is incomplete") {
    val stub = new SolverBacked {
      val name = "STUB"
      def solve(i: Instance): Solution = Solution(incomplete, 0.0, proved = true)
    }
    val ex = intercept[IllegalStateException](Harness.run(stub, pair, "fig3"))
    assert(ex.getMessage.contains("STUB on fig3 returned an incomplete explanation"), ex.getMessage)
    assert(ex.getMessage.contains("impact inequality"), ex.getMessage)
  }

  test("run accepts a complete solver-backed result and exempts baselines") {
    val complete = ExplanationSet(inst.tupleById.keySet, Map.empty, Set.empty)
    val solver = new SolverBacked {
      val name = "STUB"
      def solve(i: Instance): Solution = Solution(complete, -3.5, proved = true)
    }
    val solved = Harness.run(solver, pair, "fig3")
    assert(solved.proved && solved.objective.contains(-3.5))
    val baseline = new Algorithm {
      val name = "BASELINE"
      def derive(i: Instance): ExplanationSet = incomplete
    }
    val derived = Harness.run(baseline, pair, "fig3")
    assert(derived.algorithm == "BASELINE" && derived.objective.isEmpty)
  }
}

package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

/** Property-based invariants of the scoring model and solver, driven by
  * ScalaCheck generators (sampled explicitly — the scalatest/scalacheck
  * bridge artifact is not available offline).
  */
class PropertySpec extends AnyFunSuite {

  private val genParams: Gen[Params] = for {
    a <- Gen.choose(0.55, 0.99)
    b <- Gen.choose(0.55, 0.99)
  } yield Params(a, b)

  private def genInstanceWith(impact: Gen[Int]): Gen[Instance] = for {
    params <- genParams
    n1 <- Gen.choose(1, 4)
    n2 <- Gen.choose(1, 4)
    imps1 <- Gen.listOfN(n1, impact)
    imps2 <- Gen.listOfN(n2, impact)
    phi <- Gen.oneOf(Phi.Equiv, Phi.LessGeneral, Phi.MoreGeneral)
    edges <- Gen.listOf(for {
      i <- Gen.choose(0, n1 - 1)
      j <- Gen.choose(0, n2 - 1)
      p <- Gen.oneOf(0.1, 0.3, 0.6, 0.9, 0.97)
    } yield TupleMatch(i.toLong, 100L + j, p))
  } yield Instance(
    imps1.zipWithIndex.map { case (im, i) => CTuple(i.toLong, 1, Seq(s"l$i"), im) }.toVector,
    imps2.zipWithIndex.map { case (im, j) => CTuple(100L + j, 2, Seq(s"r$j"), im) }.toVector,
    edges.groupBy(m => (m.left, m.right)).values.map(_.head).toVector.sortBy(m => (m.left, m.right)),
    phi, params)

  private val genInstance: Gen[Instance] = genInstanceWith(Gen.choose(0, 5))

  /** Mixed-sign impacts (SUM over negative values): the bound's
    * non-negative-impact shortcut no longer applies.
    */
  private val genSignedInstance: Gen[Instance] = genInstanceWith(Gen.choose(-3, 5))

  private def samples(
      n: Int,
      filter: Instance => Boolean = _ => true,
      gen: Gen[Instance] = genInstance,
  ): Seq[Instance] =
    (0 until n * 4).iterator
      .map(i => gen.pureApply(Gen.Parameters.default, Seed(1000L + i)))
      .filter(filter)
      .take(n)
      .toSeq

  test("solver output is always complete and scores consistently") {
    for (inst <- samples(40)) {
      val sol = ExplainSolver.solve(inst)
      assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty, s"$inst")
      assert(math.abs(Scoring.logProb(inst, sol.explanations) - sol.logProb) < 1e-9, s"$inst")
    }
  }

  test("solver is optimal against the semantic brute force") {
    for (inst <- samples(30, _.matches.size <= 10)) {
      val sol = ExplainSolver.solve(inst)
      val (_, best) = SemanticBruteForce.solve(inst)
      assert(math.abs(sol.logProb - best) < 1e-9, s"$inst")
    }
  }

  test("solver is optimal against the semantic brute force with negative impacts") {
    val insts = samples(40, _.matches.size <= 10, genSignedInstance)
    assert(insts.count(_.tupleById.values.exists(_.impact < 0)) >= 20)
    for (inst <- insts) {
      val sol = ExplainSolver.solve(inst)
      val (_, best) = SemanticBruteForce.solve(inst)
      assert(sol.proved, s"$inst")
      assert(math.abs(sol.logProb - best) < 1e-9, s"$inst")
      assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty, s"$inst")
    }
  }

  test("deleting everything is always a complete fallback, never better than the optimum") {
    for (inst <- samples(20)) {
      val nonZero = inst.tupleById.collect { case (id, t) if t.impact != 0.0 => id }.toSet
      val e = ExplanationSet(nonZero, Map.empty, Set.empty)
      assert(Scoring.completenessViolation(inst, e).isEmpty, s"$inst")
      val sol = ExplainSolver.solve(inst)
      assert(sol.logProb >= Scoring.logProb(inst, e) - 1e-9, s"$inst")
    }
  }

  test("adding an isolated zero-impact tuple shifts the optimum by exactly costKeep") {
    for (inst <- samples(15)) {
      val sol = ExplainSolver.solve(inst)
      val extended = inst.copy(t1 = inst.t1 :+ CTuple(9999, 1, Seq("isolated"), 0.0))
      val sol2 = ExplainSolver.solve(extended)
      assert(math.abs(sol2.logProb - (sol.logProb + inst.params.costKeep)) < 1e-9, s"$inst")
    }
  }

  test("smart partitioning at batch ≥ instance size equals the unpartitioned solve") {
    for (inst <- samples(15, _.matches.size <= 10)) {
      val sol = ExplainSolver.solve(inst)
      val parted = repro.partition.SmartPartition.solve(
        inst,
        repro.partition.SmartPartition.Config(batchSize = inst.t1.size + inst.t2.size + 1),
        ExplainSolver.Config())
      assert(math.abs(parted.logProb - sol.logProb) < 1e-9, s"$inst")
    }
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

class ModelSpec extends AnyFunSuite {

  test("Phi cardinality caps per Definition 3.2") {
    assert(Phi.Equiv.capsLeft && Phi.Equiv.capsRight)
    assert(Phi.LessGeneral.capsLeft && !Phi.LessGeneral.capsRight)
    assert(!Phi.MoreGeneral.capsLeft && Phi.MoreGeneral.capsRight)
  }

  test("Phi.hubSide is never capped, except under ≡") {
    assert(Phi.Equiv.hubSide == 2 && Phi.LessGeneral.hubSide == 2 && Phi.MoreGeneral.hubSide == 1)
    for (phi <- Seq(Phi.Equiv, Phi.LessGeneral, Phi.MoreGeneral)) {
      val (hubCapped, leafCapped) =
        if (phi.hubSide == 1) (phi.capsLeft, phi.capsRight) else (phi.capsRight, phi.capsLeft)
      assert(hubCapped == (phi == Phi.Equiv), s"$phi hub")
      assert(leafCapped, s"$phi leaf")
    }
    assert(Phi.MoreGeneral.hubAndLeaf(1, 2) == ((1L, 2L)))
    assert(Phi.LessGeneral.hubAndLeaf(1, 2) == ((2L, 1L)))
    assert(Phi.Equiv.hubAndLeaf(1, 2) == ((2L, 1L)))
  }

  /** Tuple costs of `e` on `inst`: Scoring.logProb less the match terms. */
  private def tupleCost(inst: Instance, e: ExplanationSet): Double =
    Scoring.logProb(inst, e) - inst.matches.iterator.map { m =>
      if (e.evidence.contains((m.left, m.right))) math.log(m.p) else math.log(1 - m.p)
    }.sum

  // The default priors; α = 0.55 with β = 0.6, where deleting beats even an
  // unchanged keep at 0; and β = 0.55, where refining a non-zero impact to
  // 0 beats deleting.
  private val priors = Seq(
    (Params(), true, false), (Params(0.55, 0.6), true, true), (Params(0.95, 0.55), false, false))

  test("Params.starCost equals Scoring.logProb on balanced and unbalanced stars") {
    for ((p, _, _) <- priors) {
      // ⊑: hub 10 on T2 with leaves 0 and 1 (impacts 1 and 2).
      def star(hubImpact: Double) = Instance(
        Vector(CTuple(0, 1, Seq("a"), 1), CTuple(1, 1, Seq("b"), 2)),
        Vector(CTuple(10, 2, Seq("ab"), hubImpact)),
        Vector(TupleMatch(0, 10, 0.8), TupleMatch(1, 10, 0.7)), Phi.LessGeneral, p)
      val ev = Set((0L, 10L), (1L, 10L))
      val balanced = star(3)
      val eb = ExplanationSet(Set.empty, Map.empty, ev)
      assert(Scoring.completenessViolation(balanced, eb).isEmpty)
      assert(math.abs(tupleCost(balanced, eb) - p.starCost(2, 3, 3)) < 1e-12, s"$p balanced")
      assert(p.starCost(2, 3, 3) == 3 * p.costKeep)
      val unbalanced = star(5)
      val eu = ExplanationSet(Set.empty, Map(10L -> ValueChange(10, 5, 3)), ev)
      assert(Scoring.completenessViolation(unbalanced, eu).isEmpty)
      assert(math.abs(tupleCost(unbalanced, eu) - p.starCost(2, 3, 5)) < 1e-12, s"$p unbalanced")
      // A hub without leaves is an unmatched tuple.
      assert(p.starCost(0, 0, 5) == p.unmatchedCost(5))
    }
  }

  test("Params.unmatchedCost and deletesUnmatched equal Scoring.logProb on unmatched tuples") {
    for ((p, deletesNonZero, deletesZero) <- priors) {
      assert(p.deletesUnmatched(4) == deletesNonZero, s"$p non-zero")
      assert(p.deletesUnmatched(0) == deletesZero, s"$p zero")
      for (impact <- Seq(0.0, 4.0)) {
        val inst = Instance(Vector(CTuple(0, 1, Seq("x"), impact)), Vector.empty, Vector.empty, Phi.Equiv, p)
        val e =
          if (p.deletesUnmatched(impact)) ExplanationSet(Set(0L), Map.empty, Set.empty)
          else if (impact != 0.0) ExplanationSet(Set.empty, Map(0L -> ValueChange(0, impact, 0)), Set.empty)
          else ExplanationSet(Set.empty, Map.empty, Set.empty)
        assert(Scoring.completenessViolation(inst, e).isEmpty)
        assert(Scoring.logProb(inst, e) == p.unmatchedCost(impact), s"$p impact $impact")
        // The choice not taken scores no better.
        val other = if (p.deletesUnmatched(impact)) (if (impact == 0.0) p.costKeep else p.costChange) else p.costDelete
        assert(p.unmatchedCost(impact) >= other)
      }
    }
  }

  test("Params.unbalanced tolerates floating-point noise only") {
    assert(!Params.unbalanced(0.1 + 0.2, 0.3))
    assert(Params.unbalanced(1.0, 1.0 + 1e-6))
  }

  test("CTuple rejects invalid sides") {
    assertThrows[IllegalArgumentException](CTuple(0, 3, Seq("x"), 1.0))
    assertThrows[IllegalArgumentException](CTuple(0, 0, Seq("x"), 1.0))
  }

  test("TupleMatch rejects degenerate probabilities") {
    assertThrows[IllegalArgumentException](TupleMatch(0, 1, 0.0))
    assertThrows[IllegalArgumentException](TupleMatch(0, 1, 1.0))
    assertThrows[IllegalArgumentException](TupleMatch(0, 1, -0.2))
  }

  test("Params requires α, β in (0.5, 1) per Section 3.1") {
    assertThrows[IllegalArgumentException](Params(0.5, 0.9))
    assertThrows[IllegalArgumentException](Params(0.9, 1.0))
    val p = Params(0.7, 0.8)
    assert(p.costKeep > p.costChange)
  }

  test("Instance rejects duplicate ids and mis-assigned sides") {
    val a = CTuple(0, 1, Seq("a"), 1)
    val b = CTuple(0, 2, Seq("b"), 1)
    assertThrows[IllegalArgumentException](
      Instance(Vector(a), Vector(b), Vector.empty, Phi.Equiv))
    assertThrows[IllegalArgumentException](
      Instance(Vector(CTuple(1, 2, Seq("x"), 1)), Vector.empty, Vector.empty, Phi.Equiv))
  }

  test("ExplanationSet exposes explanation tuple ids") {
    val e = ExplanationSet(Set(1L), Map(2L -> ValueChange(2, 1, 3)), Set.empty)
    assert(e.explanationTupleIds == Set(1L, 2L))
  }

  test("Solution carries provedness") {
    val s = Solution(ExplanationSet(Set.empty, Map.empty, Set.empty), -1.0, proved = false)
    assert(!s.proved)
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

class ScoringSpec extends AnyFunSuite {

  private val params = Params(0.9, 0.9)

  /** Figure 3's canonical relations (Q1 vs Q2 of the running example). */
  def fig3: Instance = {
    val t1 = Vector(
      CTuple(0, 1, Seq("accounting"), 1), CTuple(1, 1, Seq("cs"), 2),
      CTuple(2, 1, Seq("ece"), 1), CTuple(3, 1, Seq("ee"), 1),
      CTuple(4, 1, Seq("management"), 1), CTuple(5, 1, Seq("design"), 1))
    val t2 = Vector(
      CTuple(10, 2, Seq("accounting"), 1), CTuple(11, 2, Seq("cse"), 1),
      CTuple(12, 2, Seq("ece"), 1), CTuple(13, 2, Seq("ee"), 1),
      CTuple(14, 2, Seq("management"), 1), CTuple(15, 2, Seq("design"), 1))
    val ms = Vector(
      TupleMatch(0, 10, 0.95), TupleMatch(1, 11, 0.9), TupleMatch(2, 12, 0.95),
      TupleMatch(3, 13, 0.95), TupleMatch(4, 14, 0.95), TupleMatch(5, 15, 0.95))
    Instance(t1, t2, ms, Phi.Equiv, params)
  }

  test("param costs follow Eq. (3), with the paper's b/c typo corrected") {
    val p = Params(0.9, 0.8)
    assert(math.abs(p.costDelete - math.log(0.1)) < 1e-12)
    assert(math.abs(p.costKeep - (math.log(0.9) + math.log(0.8))) < 1e-12)
    assert(math.abs(p.costChange - (math.log(0.9) + math.log(0.2))) < 1e-12)
    assert(p.costKeep > p.costChange, "keeping an impact must beat changing it")
  }

  test("complete explanation for fig3: full evidence + CSE value change") {
    val inst = fig3
    val e = ExplanationSet(
      Set.empty,
      Map(11L -> ValueChange(11, 1, 2)),
      inst.matches.map(m => (m.left, m.right)).toSet)
    assert(Scoring.completenessViolation(inst, e).isEmpty)
    val expected = 11 * params.costKeep + params.costChange +
      math.log(0.9) + 5 * math.log(0.95)
    assert(math.abs(Scoring.logProb(inst, e) - expected) < 1e-9)
  }

  test("impact inequality is flagged") {
    val inst = fig3
    val e = ExplanationSet(Set.empty, Map.empty, inst.matches.map(m => (m.left, m.right)).toSet)
    val v = Scoring.completenessViolation(inst, e)
    assert(v.exists(_.contains("impact inequality")))
  }

  test("kept unmatched tuple with nonzero impact violates completeness") {
    val inst = fig3
    val ev = inst.matches.filter(_.left != 5).map(m => (m.left, m.right)).toSet
    val e = ExplanationSet(Set(15L), Map(11L -> ValueChange(11, 1, 2)), ev)
    // tuple 5 (design, side 1) is kept, unmatched, impact 1 → singleton imbalance
    val v = Scoring.completenessViolation(inst, e)
    assert(v.exists(_.contains("impact inequality")))
  }

  test("deleting both design tuples completes") {
    val inst = fig3
    val ev = inst.matches.filter(_.left != 5).map(m => (m.left, m.right)).toSet
    val e = ExplanationSet(Set(5L, 15L), Map(11L -> ValueChange(11, 1, 2)), ev)
    assert(Scoring.completenessViolation(inst, e).isEmpty)
  }

  test("degree violations under ≡ are flagged") {
    val inst = fig3
    val extra = inst.copy(matches = inst.matches :+ TupleMatch(1, 12, 0.5))
    val ev = Set((1L, 11L), (1L, 12L))
    val e = ExplanationSet(Set.empty, Map.empty, ev)
    assert(Scoring.completenessViolation(extra, e).exists(_.contains("degree")))
  }

  test("many-to-one allowed under ⊑ but not one-to-many") {
    val t1 = Vector(CTuple(0, 1, Seq("a"), 1), CTuple(1, 1, Seq("b"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("g"), 2), CTuple(11, 2, Seq("h"), 1))
    val ms = Vector(TupleMatch(0, 10, 0.9), TupleMatch(1, 10, 0.9), TupleMatch(0, 11, 0.6))
    val inst = Instance(t1, t2, ms, Phi.LessGeneral, params)
    val manyToOne = ExplanationSet(Set(11L), Map.empty, Set((0L, 10L), (1L, 10L)))
    assert(Scoring.completenessViolation(inst, manyToOne).isEmpty)
    val oneToMany = ExplanationSet(Set(1L), Map(10L -> ValueChange(10, 2, 1)),
      Set((0L, 10L), (0L, 11L)))
    assert(Scoring.completenessViolation(inst, oneToMany).exists(_.contains("degree")))
  }

  test("evidence pair outside the initial mapping is rejected") {
    val inst = fig3
    val e = ExplanationSet(Set.empty, Map.empty, Set((0L, 11L)))
    assert(Scoring.completenessViolation(inst, e).exists(_.contains("not in the initial mapping")))
  }

  test("deleted tuples cannot appear in evidence") {
    val inst = fig3
    val e = ExplanationSet(Set(0L), Map.empty, Set((0L, 10L)))
    assert(Scoring.completenessViolation(inst, e).exists(_.contains("deleted")))
  }

  test("tuple cannot be both deleted and value-changed (Eq. 3 zero case)") {
    val inst = fig3
    val e = ExplanationSet(Set(11L), Map(11L -> ValueChange(11, 1, 2)), Set.empty)
    assert(Scoring.completenessViolation(inst, e).exists(_.contains("both")))
  }

  test("scoreOrNegInf returns -inf for incomplete sets") {
    val inst = fig3
    val e = ExplanationSet(Set.empty, Map.empty, Set.empty)
    assert(SemanticBruteForce.scoreOrNegInf(inst, e).isNegInfinity)
  }
}

package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.core.{PinnedInstances, ScoringSpec}

class BaselinesSpec extends AnyFunSuite {

  private val params = Params(0.9, 0.9)
  private def fig3 = new ScoringSpec().fig3

  test("THRESHOLD keeps only matches above the threshold") {
    val e = Threshold(0.92).derive(fig3)
    // fig3 has five 0.95 matches and one 0.9 (CS→CSE): the CS pair is lost.
    assert(e.evidence.size == 5)
    assert(e.delta.contains(1L) && e.delta.contains(11L))
  }

  test("THRESHOLD at 0.9 recovers all fig3 matches") {
    val e = Threshold(0.9).derive(fig3)
    assert(e.evidence.size == 6)
    assert(e.delta.isEmpty)
    assert(e.values.keySet == Set(11L), "CS=2 vs CSE=1 becomes a value explanation")
  }

  test("GREEDY falls into the local-maximum trap of Section 5.2") {
    val t1 = Vector(CTuple(0, 1, Seq("A"), 1), CTuple(1, 1, Seq("B"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("A'"), 1), CTuple(11, 2, Seq("B'"), 1))
    val ms = Vector(
      TupleMatch(0, 10, 0.8), TupleMatch(1, 11, 0.8),
      TupleMatch(0, 11, 0.9), TupleMatch(1, 10, 0.5))
    val inst = Instance(t1, t2, ms, Phi.Equiv, params)
    val e = Greedy.derive(inst)
    // Greedy grabs (A,B') first, then can only add (B,A').
    assert(e.evidence.contains((0L, 11L)))
    assert(e.evidence != Set((0L, 10L), (1L, 11L)), "greedy misses the global optimum")
  }

  test("GREEDY respects valid-mapping cardinality") {
    val e = Greedy.derive(fig3)
    assert(e.evidence.groupBy(_._1).values.forall(_.size <= 1))
    assert(e.evidence.groupBy(_._2).values.forall(_.size <= 1))
  }

  test("GREEDY solves fig3 exactly (no ambiguity there)") {
    val e = Greedy.derive(fig3)
    assert(e.evidence.size == 6)
    assert(e.values.keySet == Set(11L))
  }

  test("RSWOOSH merges identical names across sides") {
    val e = RSwoosh().derive(fig3)
    // accounting/ece/ee/management/design match exactly (Jaccard 1);
    // cs vs cse do not reach 0.75.
    assert(e.evidence.size == 5)
    assert(e.delta == Set(1L, 11L))
  }

  test("RSWOOSH transitive merge produces cluster cross-pairs") {
    val t1 = Vector(CTuple(0, 1, Seq("alpha beta"), 1), CTuple(1, 1, Seq("alpha beta gamma"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("alpha beta"), 1))
    val inst = Instance(t1, t2, Vector(TupleMatch(0, 10, 0.9)), Phi.LessGeneral, params)
    val e = RSwoosh(0.6).derive(inst)
    assert(e.evidence == Set((0L, 10L), (1L, 10L)))
  }

  test("EXACTCOVER ignores probabilities and impacts") {
    val e = ExactCover.derive(fig3)
    // Every T2 tuple covers exactly one element here, so all get selected.
    assert(e.evidence.size == 6)
  }

  test("EXACTCOVER enforces each element covered at most once") {
    val t1 = Vector(CTuple(0, 1, Seq("x"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("x"), 1), CTuple(11, 2, Seq("x2"), 2))
    val ms = Vector(TupleMatch(0, 10, 0.9), TupleMatch(0, 11, 0.4))
    val e = ExactCover.derive(Instance(t1, t2, ms, Phi.Equiv, params))
    assert(e.evidence.size == 1)
  }

  test("FORMALEXP produces provenance-only explanations and no evidence") {
    val e = FormalExp(15).derive(fig3)
    assert(e.evidence.isEmpty)
    assert(e.values.isEmpty)
    assert(e.delta.nonEmpty)
  }

  test("FORMALEXP top-k favours predicates shrinking the result gap") {
    // Side 1 has 3 extra "extra studies" tuples inflating its result.
    val t1 = Vector(
      CTuple(0, 1, Seq("math"), 1), CTuple(1, 1, Seq("extra studies a"), 1),
      CTuple(2, 1, Seq("extra studies b"), 1), CTuple(3, 1, Seq("extra studies c"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("math"), 1))
    val inst = Instance(t1, t2, Vector(TupleMatch(0, 10, 0.9)), Phi.Equiv, params)
    val e = FormalExp(1).derive(inst)
    assert(e.delta == Set(1L, 2L, 3L), "the 'extra' token predicate covers the gap exactly")
  }

  test("evidence decode marks unmatched tuples and unbalanced components") {
    val inst = fig3
    val e = EvidenceToExplanations.decode(inst, Set((1L, 11L)))
    assert(e.delta == inst.tupleById.keySet -- Set(1L, 11L))
    assert(e.values.keySet == Set(11L))
    assert(e.values(11L).newImpact == 2.0)
  }

  test("Explain3DNoOpt and Explain3DBatch wrap the solvers") {
    val a = Explain3DNoOpt()
    val b = Explain3DBatch(4)
    val ea = a.derive(fig3)
    val eb = b.derive(fig3)
    assert(ea.evidence.size == 6)
    assert(eb.evidence.nonEmpty)
  }

  test("pinned GREEDY and evidence decode on seeded random instances") {
    // Digests recorded before the star cost model moved onto Params: 40x40
    // instances covering every φ, zero and negative impacts and non-default
    // α/β (PinnedInstances.instance). Decode gets a random evidence subset.
    val expected = Seq(
      // (case, Greedy.derive digest, decode digest)
      (0, "1e749d4e04d20c2d", "424dc1cee41c9b14"),
      (1, "9f17ffcb41c8e43b", "58436b5534c0eaa8"),
      (2, "b002360588b08e1d", "9f3afc18890946bb"),
      (3, "4acf90efabecac9d", "409e010fc8a98b65"),
      (4, "96716fdbab4ea7b1", "847e3bc3f6d4be3c"),
      (5, "b920d48c52ce3544", "d5ee146ec2ea430a"),
      (6, "a4e2a01ff3dd51d8", "afabd390d15aa864"),
      (7, "ba35777adbebd4f4", "d61e00ada7725d00"),
      (8, "dd5f0276e67cf892", "f6c58436bfcd9051"),
      (9, "fe1cdf8752282483", "e15e6841e0e587f4"),
      (10, "eb999ad704a2855d", "b11c7752e2ed9e08"),
      (11, "f53e4a3586c93d9b", "e4400ee67ea5f5d9"),
      (12, "280f874dde6966de", "edbe80dcd1a4fdc0"),
      (13, "f2e22ff8a3bd4972", "d62a671d796de3f0"),
      (14, "e2107d6cec0668ba", "cca21cae82a600ef"),
      (15, "29ace74dd826e1fe", "8cc8e4e6574a991d"),
      (16, "b615b147abaf942b", "26760791c015cd69"),
      (17, "d633e4166d2039e0", "f3ce3e3524442be4"),
      (18, "9ea7b41a8b90b212", "2a421403c2d0c31b"),
      (19, "a35baf54648e4358", "ca84a373b65d477c"),
    )
    assert(expected.map(_._1) == PinnedInstances.Cases)
    for ((i, greedy, decode) <- expected) {
      val inst = PinnedInstances.instance(i, 40, 0.05)
      assert(PinnedInstances.explanations(Greedy.derive(inst)) == greedy, s"case $i: GREEDY")
      val e = EvidenceToExplanations.decode(inst, PinnedInstances.someEvidence(inst, i))
      assert(PinnedInstances.explanations(e) == decode, s"case $i: decode")
    }
  }
}

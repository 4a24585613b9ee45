package repro.eval

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Model._
import repro.eval.Metrics.PRF

class GoldMetricsSpec extends SparkSpec {

  test("gold derivation: one-sided uids become provenance explanations") {
    import spark.implicits._
    val l = Seq(("a", 1.0, "u1"), ("b", 1.0, "u2")).toDF("k", "I", "uid")
    val r = Seq(("a'", 1.0, "u1"), ("c", 2.0, "u3")).toDF("k", "I", "uid")
    val g = Gold.derive(l, r, Seq("k"), Phi.Equiv)
    assert(g.evidence == Set(("a", "a'")))
    assert(g.explanations.contains(("prov", 1, "b")))
    assert(g.explanations.contains(("prov", 2, "c")))
    assert(!g.explanations.exists(_._1 == "value"))
  }

  test("gold derivation: unequal impact sums become hub-side value explanations") {
    import spark.implicits._
    val l = Seq(("cs", 2.0, "u1")).toDF("k", "I", "uid")
    val r = Seq(("cse", 1.0, "u1")).toDF("k", "I", "uid")
    val g = Gold.derive(l, r, Seq("k"), Phi.Equiv)
    assert(g.explanations == Set(("value", 2, "cse")))
  }

  test("gold derivation: many-to-one groups yield cross-pair evidence") {
    import spark.implicits._
    val l = Seq(("ece", 1.0, "g1"), ("ee", 1.0, "g1")).toDF("k", "I", "uid")
    val r = Seq(("engineering", 2.0, "g1")).toDF("k", "I", "uid")
    val g = Gold.derive(l, r, Seq("k"), Phi.LessGeneral)
    assert(g.evidence == Set(("ece", "engineering"), ("ee", "engineering")))
    assert(g.explanations.isEmpty, "balanced group needs no explanation")
  }

  test("gold derivation: null uids are provenance explanations") {
    import spark.implicits._
    val l = Seq(("x", 1.0, null.asInstanceOf[String])).toDF("k", "I", "uid")
    val r = Seq.empty[(String, Double, String)].toDF("k", "I", "uid")
    val g = Gold.derive(l, r, Seq("k"), Phi.Equiv)
    assert(g.explanations == Set(("prov", 1, "x")))
  }

  test("gold derivation: null uids on both sides next to matched and unbalanced groups") {
    import spark.implicits._
    val nul = null.asInstanceOf[String]
    val l = Seq(("a", 1.0, "u1"), ("b", 2.0, "u2"), ("b2", 3.0, "u2"), ("n1", 1.0, nul), ("n2", 4.0, nul),
      ("c", 1.0, "u3"), ("h1", 2.0, "u4"), ("h0", 0.5, "u4")).toDF("k", "I", "uid")
    val r = Seq(("a'", 1.0, "u1"), ("bb", 5.0, "u2"), ("n3", 2.0, nul), ("d", 1.0, "u5"),
      ("h3", 3.0, "u4"), ("h2", 1.0, "u4")).toDF("k", "I", "uid")
    // Recorded from the derivation that collected the null-uid tuples in
    // separate queries. u4 is unbalanced (2.5 vs 4.0) and has two keys on
    // each side: the value item names the hub side's first key.
    val evidence = Set(("a", "a'"), ("b", "bb"), ("b2", "bb"), ("h0", "h2"), ("h0", "h3"), ("h1", "h2"), ("h1", "h3"))
    val prov = Set(("prov", 1, "c"), ("prov", 1, "n1"), ("prov", 1, "n2"), ("prov", 2, "d"), ("prov", 2, "n3"))
    assert(Gold.derive(l, r, Seq("k"), Phi.Equiv) ==
      Gold.GoldStandard(prov + (("value", 2, "h3")), evidence))
    assert(Gold.derive(l, r, Seq("k"), Phi.MoreGeneral) ==
      Gold.GoldStandard(prov + (("value", 1, "h1")), evidence))
  }

  test("PRF math") {
    val p = Metrics.prf(Set(1, 2, 3), Set(2, 3, 4, 5))
    assert(math.abs(p.precision - 2.0 / 3) < 1e-9)
    assert(math.abs(p.recall - 0.5) < 1e-9)
    assert(math.abs(p.f1 - 2 * (2.0 / 3) * 0.5 / (2.0 / 3 + 0.5)) < 1e-9)
  }

  test("PRF edge cases") {
    assert(Metrics.prf(Set.empty[Int], Set.empty[Int]) == PRF(1.0, 1.0, 1.0))
    assert(Metrics.prf(Set(1), Set.empty[Int]).precision == 0.0)
    assert(Metrics.prf(Set.empty[Int], Set(1)).recall == 0.0)
  }

  test("explanation items translate ids to (kind, side, key)") {
    val keyOf = Map(0L -> (1, "a"), 10L -> (2, "b"))
    val e = ExplanationSet(Set(0L), Map(10L -> ValueChange(10, 1, 2)), Set((0L, 10L)))
    assert(Metrics.explanationItems(e, keyOf) == Set(("prov", 1, "a"), ("value", 2, "b")))
    assert(Metrics.evidenceItems(e, keyOf) == Set(("a", "b")))
  }

  test("harness averaging") {
    val r1 = Harness.AlgoResult("X", "p1", PRF(1, 1, 1), PRF(0.5, 0.5, 0.5), 10)
    val r2 = Harness.AlgoResult("X", "p2", PRF(0, 0, 0), PRF(1.0, 0.5, 2.0 / 3), 30)
    val avg = Harness.average("avg", Seq(r1, r2))
    assert(avg.explanation == PRF(0.5, 0.5, 0.5))
    assert(math.abs(avg.evidence.precision - 0.75) < 1e-9)
    assert(avg.solveMillis == 20)
  }
}

package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class SummarizeSpec extends AnyFunSuite {

  test("a dominant pattern is found (the paper's Associate-degree case)") {
    val targets = (0 until 12).map(i => Map("Degree" -> "Associate", "Major" -> s"m$i")) ++
      Seq(Map("Degree" -> "B.S.", "Major" -> "odd one"))
    val others = (0 until 50).map(i => Map("Degree" -> "B.S.", "Major" -> s"x$i"))
    val s = Summarize.summarize(targets, others)
    assert(s.patterns.exists(p => p.attr == "Degree" && p.value == "Associate"))
    assert(s.size < targets.size, "summarization must compress")
  }

  test("patterns covering many non-targets are penalized") {
    val targets = (0 until 3).map(i => Map("a" -> "v", "id" -> s"t$i"))
    val others = (0 until 100).map(i => Map("a" -> "v", "id" -> s"o$i"))
    val s = Summarize.summarize(targets, others)
    assert(!s.patterns.exists(p => p.attr == "a" && p.value == "v"))
    assert(s.uncovered == 3)
  }

  test("empty target set yields empty summary") {
    val s = Summarize.summarize(Seq.empty, Seq.empty)
    assert(s.patterns.isEmpty && s.uncovered == 0 && s.size == 0)
  }

  test("multiple disjoint patterns are all found") {
    val targets =
      (0 until 6).map(i => Map("g" -> "red", "id" -> s"r$i")) ++
        (0 until 5).map(i => Map("g" -> "blue", "id" -> s"b$i"))
    val s = Summarize.summarize(targets, Seq.empty)
    assert(s.patterns.map(p => p.value).toSet == Set("red", "blue"))
    assert(s.size == 2)
  }

  test("maxPatterns caps the pattern count") {
    val targets = (0 until 40).map(i => Map("g" -> s"v${i / 2}", "id" -> s"t$i"))
    val s = Summarize.summarize(targets, Seq.empty, maxPatterns = 5)
    assert(s.patterns.size <= 5)
  }

  /** The summarizer that scans every non-target for each candidate pattern,
    * kept as the reference for the one that counts them once.
    */
  private def quadraticSummarize(
      targets: Seq[Map[String, String]],
      others: Seq[Map[String, String]],
      maxPatterns: Int,
  ): Summarize.Summary = {
    var remaining = targets.zipWithIndex.toSet
    val chosen = Seq.newBuilder[Summarize.Pattern]
    var n = 0
    var go = true
    while (go && n < maxPatterns) {
      val counts = scala.collection.mutable.Map.empty[(String, String), Int]
      remaining.foreach { case (t, _) =>
        t.foreach { kv => counts(kv) = counts.getOrElse(kv, 0) + 1 }
      }
      val best = counts.iterator.map { case ((a, v), cov) =>
        val fp = others.count(_.get(a).contains(v))
        ((a, v), cov, cov - 2.0 * fp)
      }.filter(_._2 >= 2).maxByOption(c => (c._3, c._2, c._1))
      best match {
        case Some(((a, v), cov, score)) if score > 1.0 =>
          chosen += Summarize.Pattern(a, v, cov, others.count(_.get(a).contains(v)))
          remaining = remaining.filterNot { case (t, _) => t.get(a).contains(v) }
          n += 1
        case _ => go = false
      }
    }
    Summarize.Summary(chosen.result(), remaining.size)
  }

  test("counting non-targets once gives the quadratic summarizer's patterns, counts and ties") {
    // Few attributes and values, so values repeat within and across the
    // target and non-target sets and scores tie; some attributes are absent.
    val genMap: Gen[Map[String, String]] = for {
      attrs <- Gen.someOf("a", "b", "c", "d")
      vals <- Gen.listOfN(attrs.size, Gen.oneOf("x", "y", "z", "w"))
    } yield attrs.zip(vals).toMap
    val genCase = for {
      nT <- Gen.choose(0, 40)
      nO <- Gen.choose(0, 40)
      targets <- Gen.listOfN(nT, genMap)
      others <- Gen.listOfN(nO, genMap)
      maxPatterns <- Gen.oneOf(0, 1, 2, 3, 64)
    } yield (targets, others, maxPatterns)
    for (i <- 0 until 300) {
      val (targets, others, maxPatterns) = genCase.pureApply(Gen.Parameters.default, Seed(7000L + i))
      assert(Summarize.summarize(targets, others, maxPatterns) == quadraticSummarize(targets, others, maxPatterns),
        s"seed ${7000L + i}")
    }
  }
}

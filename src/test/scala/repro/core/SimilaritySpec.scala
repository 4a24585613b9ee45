package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Similarity.KeyAttr

class SimilaritySpec extends SparkSpec {

  private def df(rows: Seq[(Long, String)], extra: Seq[(Long, Double)] = Seq.empty) = {
    import spark.implicits._
    val base = rows.toDF("cid", "name")
    if (extra.isEmpty) base
    else base.join(extra.toDF("cid", "num"), "cid")
  }

  test("pairs sharing no token are not candidates") {
    val l = df(Seq((0L, "computer science"), (1L, "fine arts")))
    val r = df(Seq((0L, "computer engineering"), (1L, "dance")))
    val pairs = Similarity.candidatePairs(l, r, Seq(KeyAttr("name")))
      .collect().map(x => (x.getLong(0), x.getLong(1))).toSet
    assert(pairs == Set((0L, 0L)))
  }

  test("token Jaccard values are exact") {
    val l = df(Seq((0L, "computer science")))
    val r = df(Seq((0L, "computer science"), (1L, "computer engineering")))
    val rows = Similarity.candidatePairs(l, r, Seq(KeyAttr("name")))
      .collect().map(x => ((x.getLong(0), x.getLong(1)), x.getDouble(2))).toMap
    assert(math.abs(rows((0L, 0L)) - 1.0) < 1e-9)
    assert(math.abs(rows((0L, 1L)) - 1.0 / 3.0) < 1e-9)
  }

  test("case and duplicate tokens are normalized") {
    val l = df(Seq((0L, "Food Food Science")))
    val r = df(Seq((0L, "food science")))
    val sim = Similarity.candidatePairs(l, r, Seq(KeyAttr("name"))).head.getDouble(2)
    assert(math.abs(sim - 1.0) < 1e-9)
  }

  test("numeric attribute uses 1/(1+d^2) and averages with text") {
    val l = df(Seq((0L, "alpha beta")), Seq((0L, 3.0)))
    val r = df(Seq((0L, "alpha beta")), Seq((0L, 5.0)))
    val sim = Similarity
      .candidatePairs(l, r, Seq(KeyAttr("name"), KeyAttr("num", numeric = true)))
      .head.getDouble(2)
    val expected = (1.0 + 1.0 / (1.0 + 4.0)) / 2.0
    assert(math.abs(sim - expected) < 1e-9)
  }

  test("agrees with a driver-side brute force on random phrases") {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    def phrase() = (0 until 3).map(_ => s"w${rnd.nextInt(12)}").mkString(" ")
    val lrows = (0L until 40L).map(i => (i, phrase()))
    val rrows = (0L until 40L).map(i => (i, phrase()))
    val got = Similarity
      .candidatePairs(lrows.toDF("cid", "name"), rrows.toDF("cid", "name"), Seq(KeyAttr("name")))
      .collect().map(x => ((x.getLong(0), x.getLong(1)), x.getDouble(2))).toMap
    def toks(s: String) = s.split(" ").toSet
    val expected = (for {
      (li, ls) <- lrows; (ri, rs) <- rrows
      inter = toks(ls).intersect(toks(rs)).size
      if inter > 0
    } yield ((li, ri), inter.toDouble / toks(ls).union(toks(rs)).size)).toMap
    assert(got.keySet == expected.keySet)
    expected.foreach { case (k, v) => assert(math.abs(got(k) - v) < 1e-9, s"pair $k") }
  }

  test("two text attributes, a numeric one and messy strings score as the per-pair tokenizer did") {
    import spark.implicits._
    val nul = null.asInstanceOf[String]
    val lrows = Seq[(Long, String, String, Double)](
      (0L, "Data  Science", "Engineering", 3.0),
      (1L, "  data science data ", nul, 2.5),
      (2L, "", "arts", 1.0),
      (3L, nul, "Arts", 7.0),
      (4L, "FINE arts\tstudio", "arts and  crafts", 0.0),
      (5L, "Music", "", 4.0))
    val rrows = Seq[(Long, String, String, Double)](
      (0L, "data science", "engineering", 3.5),
      (1L, "Science of Data", "ENGINEERING school", 2.0),
      (2L, "", nul, 1.0),
      (3L, "fine ARTS", "Arts", -1.0),
      (4L, "studio  music  music", "", 4.0),
      (5L, nul, "arts", 0.0))
    val attrs = Seq(KeyAttr("name"), KeyAttr("dept", blocking = false), KeyAttr("num", numeric = true))
    val got = Similarity
      .candidatePairs(lrows.toDF("cid", "name", "dept", "num"), rrows.toDF("cid", "name", "dept", "num"), attrs)
      .collect().map(x => ((x.getLong(0), x.getLong(1)), x.getDouble(2))).toMap

    // Recorded from the expression that tokenized both strings of every pair.
    val recorded = Map(
      (0L, 0L) -> 0.9333333333333332, (0L, 1L) -> 0.5555555555555555,
      (1L, 0L) -> 0.5, (1L, 1L) -> 0.48888888888888893,
      (2L, 2L) -> 0.6666666666666666, (4L, 3L) -> 0.5,
      (4L, 4L) -> 0.10294117647058824, (5L, 4L) -> 0.8333333333333334)
    assert(got == recorded)

    // Driver-side brute force. Spark's trim strips spaces only and its split
    // keeps empty tokens, so "" is the token of an empty string; a null text
    // value has no tokens, blocks nothing and scores 0.
    def toks(s: String): Option[Set[String]] =
      Option(s).map(_.dropWhile(_ == ' ').reverse.dropWhile(_ == ' ').reverse.toLowerCase.split("\\s+", -1).toSet)
    def jaccard(a: String, b: String) = (toks(a), toks(b)) match {
      case (Some(x), Some(y)) => x.intersect(y).size.toDouble / x.union(y).size
      case _                  => 0.0
    }
    val expected = (for {
      (li, ln, ld, lx) <- lrows; (ri, rn, rd, rx) <- rrows
      if toks(ln).exists(x => toks(rn).exists(_.intersect(x).nonEmpty))
    } yield ((li, ri), (jaccard(ln, rn) + jaccard(ld, rd) + 1.0 / (1.0 + (lx - rx) * (lx - rx))) / 3.0)).toMap
    assert(got.keySet == expected.keySet)
    expected.foreach { case (k, v) => assert(math.abs(got(k) - v) < 1e-12, s"pair $k") }
  }

  test("a null numeric value scores 0, as a null text value does") {
    import spark.implicits._
    val l = Seq((0L, "alpha beta", None: Option[Double]), (1L, "gamma", Some(2.0))).toDF("cid", "name", "num")
    val r = Seq((0L, "alpha beta", Some(5.0)), (1L, "gamma", None: Option[Double])).toDF("cid", "name", "num")
    val got = Similarity.candidatePairs(l, r, Seq(KeyAttr("name"), KeyAttr("num", numeric = true)))
      .collect().map(x => ((x.getLong(0), x.getLong(1)), x.getDouble(2))).toMap
    assert(got == Map((0L, 0L) -> 0.5, (1L, 1L) -> 0.5))
  }

  test("tokens block across attributes: random instance against a driver-side brute force") {
    import spark.implicits._
    // Two blocking text attributes drawing from one vocabulary, so many pairs
    // share a token only across attributes; a non-blocking text attribute
    // and a numeric one, each sometimes null.
    val rnd = new scala.util.Random(11)
    def maybe[A](a: => A): Option[A] = if (rnd.nextInt(6) == 0) None else Some(a)
    def phrase(n: Int) = (0 until n).map(_ => s"W${rnd.nextInt(14)}").mkString(" ")
    def side() = (0L until 30L).map(i =>
      (i, maybe(phrase(2)).orNull, maybe(phrase(1 + rnd.nextInt(2))).orNull, maybe(phrase(1)).orNull,
        maybe(rnd.nextInt(4).toDouble)))
    val (lrows, rrows) = (side(), side())
    val attrs = Seq(KeyAttr("a"), KeyAttr("b"), KeyAttr("g", blocking = false), KeyAttr("x", numeric = true))
    val got = Similarity
      .candidatePairs(lrows.toDF("cid", "a", "b", "g", "x"), rrows.toDF("cid", "a", "b", "g", "x"), attrs)
      .collect().map(x => ((x.getLong(0), x.getLong(1)), x.getDouble(2))).toMap

    def toks(s: String): Set[String] = Option(s).fold(Set.empty[String])(_.toLowerCase.split(" ").toSet)
    def jaccard(a: String, b: String) = {
      val (x, y) = (toks(a), toks(b))
      if (x.isEmpty && y.isEmpty) 0.0 else x.intersect(y).size.toDouble / x.union(y).size.toDouble
    }
    val expected = (for {
      (li, la, lb, lg, lx) <- lrows; (ri, ra, rb, rg, rx) <- rrows
      if (toks(la) ++ toks(lb)).intersect(toks(ra) ++ toks(rb)).nonEmpty
      num = (for (p <- lx; q <- rx) yield 1.0 / (1.0 + (p - q) * (p - q))).getOrElse(0.0)
    } yield ((li, ri), (jaccard(la, ra) + jaccard(lb, rb) + jaccard(lg, rg) + num) / 4.0)).toMap
    val crossOnly = lrows.count { case (_, la, lb, _, _) =>
      rrows.exists { case (_, ra, rb, _, _) =>
        toks(la).intersect(toks(ra)).isEmpty && toks(lb).intersect(toks(rb)).isEmpty &&
          (toks(la) ++ toks(lb)).intersect(toks(ra) ++ toks(rb)).nonEmpty
      }
    }
    assert(crossOnly > 0, "the instance must hold pairs that share a token only across attributes")
    assert(got == expected)
  }

  test("requires at least one text attribute") {
    val l = df(Seq((0L, "x")), Seq((0L, 1.0)))
    assertThrows[IllegalArgumentException](
      Similarity.candidatePairs(l, l, Seq(KeyAttr("num", numeric = true))))
  }
}

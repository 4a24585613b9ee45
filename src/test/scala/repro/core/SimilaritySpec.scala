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

  test("requires at least one text attribute") {
    val l = df(Seq((0L, "x")), Seq((0L, 1.0)))
    assertThrows[IllegalArgumentException](
      Similarity.candidatePairs(l, l, Seq(KeyAttr("num", numeric = true))))
  }
}

package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Pipeline, Stage1Digest}

class ImdbQueriesSpec extends SparkSpec {

  private lazy val cfg = ImdbData.Config(movies = 600, actors = 700, directors = 200)
  private lazy val v = ImdbData.views(spark, cfg)

  test("all 10 templates produce canonical relations with the match attrs") {
    val qs = ImdbQueries.all(v, year = 1990, genre = "comedy")
    assert(qs.size == 10)
    for (q <- qs) {
      val cols = q.attrs.map(_.name).toSet + "I" + "uid"
      assert(cols.subsetOf(q.left.columns.toSet), s"${q.name} left: ${q.left.columns.toSeq}")
      assert(cols.subsetOf(q.right.columns.toSet), s"${q.name} right: ${q.right.columns.toSeq}")
    }
  }

  test("provenance has at least the canonical relation's rows, and Q1's has more") {
    for (q <- ImdbQueries.all(v, year = 1990, genre = "comedy")) {
      assert(q.leftProv.count() >= q.left.count(), s"${q.name} left")
      assert(q.rightProv.count() >= q.right.count(), s"${q.name} right")
    }
    // One Q1 provenance row per (person, short movie), one canonical row per person.
    val q1 = ImdbQueries.q1(v, 1990)
    assert(q1.leftProv.count() > q1.left.count() || q1.rightProv.count() > q1.right.count())
  }

  test("movie queries key on (title, release_year), person queries on person attrs") {
    val q3 = ImdbQueries.q3(v, 1990)
    assert(q3.attrs.map(_.name) == Seq("title", "release_year"))
    val q1 = ImdbQueries.q1(v, 1990)
    assert(q1.attrs.map(_.name) == Seq("name", "gender", "dob"))
  }

  test("Q3 canonical impacts are counts (1.0 per distinct movie)") {
    val q = ImdbQueries.q3(v, 1992)
    val imps = q.left.select("I").collect().map(_.getDouble(0))
    assert(imps.forall(_ >= 1.0))
  }

  test("Q5 canonical impacts are gross values") {
    val q = ImdbQueries.q5(v, 1992)
    assert(q.left.filter(col("I") < 1e6).count() == 0)
  }

  test("queries disagree across views somewhere in the sweep") {
    val disagreements = (1990 to 1993).count { y =>
      val q = ImdbQueries.q3(v, y)
      val l = q.left.agg(coalesce(sum("I"), lit(0.0))).head.getDouble(0)
      val r = q.right.agg(coalesce(sum("I"), lit(0.0))).head.getDouble(0)
      l != r
    }
    assert(disagreements > 0, "single-genre view 1 must miss some comedies")
  }

  test("Q2's view 2 includes non-director links (schema-driven excess)") {
    val year = 1955 // dob year
    val q = ImdbQueries.q2(v, year)
    val l = q.left.count()
    val r = q.right.count()
    assert(r > l, s"view2 ($r) must exceed view1 ($l): actors born in $year count too")
  }

  test("Q10's view 2 includes female directors") {
    val q = ImdbQueries.q10(v, "comedy")
    val l = q.left.count()
    val r = q.right.count()
    assert(r > l, "view2 cannot restrict to actresses")
  }

  test("Q10 stage-1 output is bit-identical to the recorded reference") {
    // Person attributes: a numeric dob and a non-blocking gender. Tuples and
    // gold recorded from the stage 1 that tokenized both strings of every
    // candidate pair; the match digest from the one with hash-keyed labels.
    val q = ImdbQueries.q10(v, "comedy")
    val p = Pipeline.prepare(q.left, q.right, q.attrs, q.phi)
    assert((p.inst.t1.size, p.inst.t2.size, p.inst.matches.size) == ((286, 304, 1140)))
    assert(Stage1Digest.matches(p.inst.matches) == "15826bec92c38808")
    assert(Stage1Digest.tuples(p.inst.t1) == "3e50455c05a7461b")
    assert(Stage1Digest.tuples(p.inst.t2) == "c51858e5a07961f0")
    assert((p.gold.explanations.size, p.gold.evidence.size) == ((100, 245)))
    assert(Stage1Digest.gold(p.gold) == "78835ae750b7497a")
  }

  test("strict templates (Q6-Q9) do not consolidate provenance") {
    val q6 = ImdbQueries.q6(v, 1992)
    val q5 = ImdbQueries.q5(v, 1992)
    // Same year slice: strict keeps per-row tuples; counts at least as many.
    assert(q6.left.count() >= q5.left.count())
  }
}

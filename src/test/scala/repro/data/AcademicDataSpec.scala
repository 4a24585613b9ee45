package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Model.Phi
import repro.eval.Gold

class AcademicDataSpec extends SparkSpec {

  test("UMass pair reproduces Figure 4's row counts") {
    val prov = AcademicData.majorTable(spark, AcademicData.UMass)
    assert(prov.count() == 113, "provenance |P| = 113")
    val canon = AcademicData.leftCanonical(spark, AcademicData.UMass)
    assert(canon.count() == 95, "canonical |T| = 95")
    val right = AcademicData.rightCanonical(spark, AcademicData.UMass)
    assert(right.count() == 81, "NCES canonical = 81 programs")
  }

  test("OSU pair reproduces Figure 4's row counts") {
    assert(AcademicData.majorTable(spark, AcademicData.OSU).count() == 282)
    assert(AcademicData.leftCanonical(spark, AcademicData.OSU).count() == 206)
    assert(AcademicData.rightCanonical(spark, AcademicData.OSU).count() == 153)
  }

  test("double-degree majors have canonical impact 2") {
    val canon = AcademicData.leftCanonical(spark, AcademicData.UMass)
    assert(canon.filter(col("I") === 2.0).count() == AcademicData.UMass.nDoubleDegree)
  }

  test("Q1 (COUNT majors) matches DuckDB (oracle)") {
    val majors = AcademicData.majorTable(spark, AcademicData.UMass)
    val got = majors.agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(COUNT(*) AS BIGINT) AS n FROM major",
      "major" -> majors.select("Major", "Degree"))
  }

  test("Q2 (SUM bach_degr over join) matches DuckDB (oracle)") {
    val (school, stats) = AcademicData.ncesTables(spark, AcademicData.UMass)
    val got = school.filter(col("Univ_name") === "UMass-Amherst")
      .join(stats, "ID")
      .agg(sum("bach_degr").cast("double").as("total"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(SUM(CAST(bach_degr AS DOUBLE)) AS DOUBLE) AS total " +
        "FROM school, stats WHERE Univ_name = 'UMass-Amherst' AND school.ID = stats.ID",
      "school" -> school, "stats" -> stats.select("ID", "Program", "bach_degr"))
  }

  test("the two queries disagree, like the paper's 113 vs 90") {
    val q1 = AcademicData.majorTable(spark, AcademicData.UMass).count()
    val (school, stats) = AcademicData.ncesTables(spark, AcademicData.UMass)
    val q2 = school.filter(col("Univ_name") === "UMass-Amherst").join(stats, "ID")
      .agg(sum("bach_degr")).head.getDouble(0)
    assert(q1.toDouble != q2)
  }

  test("gold standard matches the configured structure") {
    val cfg = AcademicData.UMass
    val gold = Gold.derive(
      AcademicData.leftCanonical(spark, cfg),
      AcademicData.rightCanonical(spark, cfg).withColumnRenamed("Program", "Major"),
      Seq("Major"), Phi.LessGeneral)
    assert(gold.evidence.size == cfg.nMatchedLeft, "|M*| = 71 evidence pairs")
    val provLeft = gold.explanations.count(e => e._1 == "prov" && e._2 == 1)
    val provRight = gold.explanations.count(e => e._1 == "prov" && e._2 == 2)
    assert(provLeft == cfg.nCanonLeft - cfg.nMatchedLeft)
    assert(provRight == cfg.nRightOnly)
    assert(gold.explanations.exists(_._1 == "value"), "value-based explanations exist")
  }

  test("some matched programs share no token with their major (hard renames)") {
    val cfg = AcademicData.UMass
    val left = AcademicData.leftCanonical(spark, cfg)
      .select(col("Major"), col("uid")).collect().map(r => r.getString(1) -> r.getString(0)).toMap
    val right = AcademicData.rightCanonical(spark, cfg)
      .select(col("Program"), col("uid")).collect()
    def toks(s: String) = s.toLowerCase.split(" ").toSet
    val matched = right.flatMap(r => left.get(r.getString(1)).map(l => (l, r.getString(0))))
    val noOverlap = matched.count { case (l, p) => toks(l).intersect(toks(p)).isEmpty }
    assert(noOverlap > 0, "hard renames must defeat token-based matching")
    assert(noOverlap < matched.length / 2, "but most matches stay findable")
  }

  test("stage 3 compresses explanations via the Associate-degree pattern") {
    import repro.core.{ExplainSolver, Pipeline, Summarize}
    import repro.core.Similarity.KeyAttr
    val cfg = AcademicData.UMass
    val left = AcademicData.leftCanonical(spark, cfg).withColumnRenamed("Major", "name")
    val right = AcademicData.rightCanonical(spark, cfg).withColumnRenamed("Program", "name")
    val pair = Pipeline.prepare(left, right, Seq(KeyAttr("name")), Phi.LessGeneral, simFloor = 0.4)
    val e = ExplainSolver.solve(pair.inst).explanations
    val targetIds = e.explanationTupleIds
    val targets = pair.inst.tupleById.collect { case (id, t) if targetIds(id) => t.attrs }.toSeq
    val others = pair.inst.tupleById.collect { case (id, t) if !targetIds(id) => t.attrs }.toSeq
    val s = Summarize.summarize(targets, others)
    assert(s.patterns.exists(p => p.attr == "Degree" && p.value == "Associate"),
      s"patterns found: ${s.patterns}")
    assert(s.size < targets.size, s"|E_S|=${s.size} must compress |E|=${targets.size}")
  }

  test("Figure 4's UMass row counts the matches prepare keeps at the Academic floor") {
    import repro.core.Pipeline
    import repro.core.Similarity.KeyAttr
    import repro.eval.Experiments
    val row = Experiments.academicStats(spark).head
    assert(row.startsWith(AcademicData.UMass.univName), row)
    val (l, r) = Experiments.academicPair(spark, AcademicData.UMass)
    val m = Pipeline.prepare(l, r, Seq(KeyAttr("name")), Phi.LessGeneral, simFloor = Experiments.AcademicSimFloor)
      .inst.matches.size
    assert(row.contains(s" |M|=$m "), row)
  }

  test("the NCES Stats table includes other universities' rows") {
    val (_, stats) = AcademicData.ncesTables(spark, AcademicData.UMass)
    assert(stats.count() > 5000)
    assert(stats.filter(col("ID") === 1).count() == 81)
  }
}

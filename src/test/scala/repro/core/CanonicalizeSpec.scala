package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Provenance.Output

class CanonicalizeSpec extends SparkSpec {

  private def majors = {
    import spark.implicits._
    Seq(
      ("accounting", "B.S."), ("cs", "B.A."), ("cs", "B.S."), ("ece", "B.S."),
      ("ee", "B.S."), ("management", "B.A."), ("design", "B.A."),
    ).toDF("program", "degree")
  }

  test("COUNT provenance gives impact 1 per tuple") {
    val p = Provenance.relation(majors, Output.Count)
    assert(p.count() == 7)
    assert(p.select(sum("I")).head.getDouble(0) == 7.0)
  }

  test("SUM provenance copies the aggregated column") {
    import spark.implicits._
    val d3 = Seq(("business", 2), ("engineering", 2), ("computer science", 1))
      .toDF("college", "num_bach")
    val p = Provenance.relation(d3, Output.Sum("num_bach"))
    assert(p.select(sum("I")).head.getDouble(0) == 5.0)
  }

  test("canonicalization consolidates duplicate keys and sums impacts (fig 3)") {
    val t = Canonicalize.canonical(Provenance.relation(majors, Output.Count), Seq("program"))
    assert(t.count() == 6)
    val cs = t.filter(col("program") === "cs").select("I").head.getDouble(0)
    assert(cs == 2.0)
  }

  test("consolidation runs in one partition with no exchange") {
    // Strict or not, the canonical relation is one partition, so sorting it
    // into cid order adds no exchange either.
    val maxLen = Provenance.relation(majors.withColumn("len", length(col("degree"))), Output.Max("len"))
    for ((t, n) <- Seq(
        Canonicalize.canonical(Provenance.relation(majors, Output.Count), Seq("program")) -> 6,
        Canonicalize.canonical(maxLen, Seq("program"), strict = true) -> 7)) {
      val sorted = t.orderBy("program", "I")
      assert(sorted.collect().length == n)
      assert(Pipeline.shuffles(t) == 0, t.queryExecution.executedPlan)
      assert(Pipeline.shuffles(sorted) == 0, sorted.queryExecution.executedPlan)
    }
  }

  test("canonicalization matches DuckDB group-by (oracle)") {
    val p = Provenance.relation(majors, Output.Count)
    val t = Canonicalize.canonical(p, Seq("program"))
      .select(col("program"), col("I").as("total"))
    Oracle.assertEquivalent(
      t,
      "SELECT program, CAST(SUM(CAST(I AS DOUBLE)) AS DOUBLE) AS total FROM prov GROUP BY program",
      "prov" -> p.select(col("program"), col("I")),
    )
  }

  test("strict mode (AVG/MAX/MIN) keeps every provenance tuple") {
    // fabricate a numeric column for the aggregate
    val p2 = Provenance.relation(majors.withColumn("len", length(col("degree"))), Output.Max("len"))
    assert(Output.Avg("x").strict && Output.Max("x").strict && Output.Min("x").strict)
    assert(!Output.Count.strict && !Output.Sum("x").strict && !Output.NonAggregate.strict)
    val t = Canonicalize.canonical(p2, Seq("program"), strict = true)
    assert(t.count() == 7, "no consolidation under strict queries")
  }

  test("uid column is threaded through when present, null otherwise") {
    import spark.implicits._
    val withUid = majors.withColumn("uid", concat(lit("u-"), col("program")))
    val t = Canonicalize.canonical(Provenance.relation(withUid, Output.Count), Seq("program"))
    assert(t.filter(col("uid").isNull).count() == 0)
    val t2 = Canonicalize.canonical(Provenance.relation(majors, Output.Count), Seq("program"))
    assert(t2.columns.contains("uid"))
    assert(t2.filter(col("uid").isNotNull).count() == 0)
  }

  test("consolidation keeps each key's least uid and extra, whatever the row order") {
    import spark.implicits._
    // 12 rows per key, with several uids and degrees each, some null.
    val rows = (0 until 60).map(i =>
      (s"k${i % 5}", if (i % 7 == 3) null else s"u${i * 7 % 13}", if (i % 4 == 0) null else s"d${i * 5 % 9}"))
    val prov = Provenance.relation(rows.toDF("program", "uid", "degree"), Output.Count)
    def canon(p: org.apache.spark.sql.DataFrame) =
      Canonicalize.canonical(p, Seq("program"), extraAttrs = Seq("degree"))
        .select("program", "I", "degree", "uid").orderBy("program").collect().map(_.toString).toSeq
    val expected = rows.groupBy(_._1).toSeq.sortBy(_._1).map { case (k, rs) =>
      s"[$k,${rs.size.toDouble},${rs.flatMap(r => Option(r._3)).min},${rs.flatMap(r => Option(r._2)).min}]"
    }
    val cached = prov.cache()
    try withSevenPartitions {
      for (p <- Seq(prov, prov.repartition(1), prov.repartition(7), prov.orderBy(col("uid").desc), cached))
        assert(canon(p) == expected)
    } finally cached.unpersist()
  }

  test("canonical SUM query equals DuckDB on synthetic lineitem slice") {
    // A 2000-row lineitem slice: quantity 1..50, prices with cents, three
    // return flags.
    val li = spark.range(2000).select(
      (col("id") % 50 + 1).cast("double").as("l_quantity"),
      round(col("id") * 7919 % 90000 + 900 + col("id") % 100 / 100.0, 2).as("l_extendedprice"),
      element_at(array(lit("N"), lit("R"), lit("A")), (col("id") % 3 + 1).cast("int")).as("l_returnflag"),
    )
    val p = Provenance.relation(li.filter(col("l_quantity") > 25), Output.Sum("l_extendedprice"))
    val t = Canonicalize.canonical(p, Seq("l_returnflag"))
      .select(col("l_returnflag"), round(col("I"), 2).as("total"))
    Oracle.assertEquivalent(
      t,
      "SELECT l_returnflag, ROUND(CAST(SUM(CAST(I AS DOUBLE)) AS DOUBLE), 2) AS total " +
        "FROM prov GROUP BY l_returnflag",
      "prov" -> p.select(col("l_returnflag"), col("I")),
    )
  }
}

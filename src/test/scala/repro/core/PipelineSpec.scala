package repro.core

import repro.SparkSpec
import repro.baselines._
import repro.core.Model.Phi
import repro.core.Similarity.KeyAttr
import repro.data.{ImdbQueries, SyntheticGen}
import repro.eval.{Harness, Metrics}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.config.Configurator
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import scala.jdk.CollectionConverters._
import scala.util.Try

/** End-to-end pipeline tests on the §5.3 synthetic generator: stage 1 in
  * Spark, stage 2 in the solver, metrics against the derived gold standard.
  */
class PipelineSpec extends SparkSpec {

  private val cfg150 = SyntheticGen.Config(n = 150, d = 0.2, v = 60, seed = 7)

  /** Prepares the n=150 pair with `provenance` applied to both provenance
    * relations and `canonical` to both canonical ones.
    */
  private def prepare150(
      canonical: DataFrame => DataFrame = identity,
      provenance: DataFrame => DataFrame = identity,
  ): Pipeline.PreparedPair = {
    def side(s: Int) = canonical(Canonicalize.canonical(
      provenance(Provenance.relation(SyntheticGen.side(spark, cfg150, s), Provenance.Output.Sum("val"))),
      Seq("match_attr")))
    Pipeline.prepare(side(1), side(2), Seq(KeyAttr("match_attr")), Phi.Equiv)
  }

  private lazy val prepared = prepare150()

  test("stage-1 output is bit-identical to the recorded reference") {
    // Tuples and gold recorded from the stage 1 that tokenized both strings
    // of every candidate pair; the match digest from the one whose
    // calibration labels are keyed by a hash of the pair. Any change in
    // which pairs the label sample holds changes a bucket probability and
    // so the match digest.
    val inst = prepared.inst
    assert((inst.t1.size, inst.t2.size, inst.matches.size) == ((135, 137, 6400)))
    assert(Stage1Digest.matches(inst.matches) == "e29671b35bfbe756")
    assert(Stage1Digest.tuples(inst.t1) == "9e1bafc6bc23d64c")
    assert(Stage1Digest.tuples(inst.t2) == "410b801089d40c05")
    assert((prepared.gold.explanations.size, prepared.gold.evidence.size) == ((54, 124)))
    assert(Stage1Digest.gold(prepared.gold) == "e72dc00448cae9db")
  }

  test("stage 1 is a pure function of its logical input") {
    def digest(p: Pipeline.PreparedPair) = Seq(Stage1Digest.matches(p.inst.matches),
      Stage1Digest.tuples(p.inst.t1), Stage1Digest.tuples(p.inst.t2), Stage1Digest.gold(p.gold))
    val expected = digest(prepared)
    val cached = scala.collection.mutable.Buffer.empty[DataFrame]
    val physical = Seq[(String, DataFrame => DataFrame)](
      "as given" -> identity, "repartition(1)" -> (_.repartition(1)),
      "repartition(7)" -> (_.repartition(7)), "cache" -> { df => cached += df.cache(); df })
    try {
      val differing = withSevenPartitions {
        physical.flatMap { case (name, f) =>
          Seq(s"canonical $name" -> prepare150(canonical = f), s"provenance $name" -> prepare150(provenance = f))
        }.collect { case (name, p) if digest(p) != expected => name }
      }
      assert(differing.isEmpty, differing)
    } finally cached.foreach(_.unpersist())
  }

  /** The reference cid numbering, collected in cid order: Spark's
    * `row_number` over an unpartitioned window in `withCid`'s order. The
    * window moves every row to one task by design, so Spark's warning that
    * it does so is silenced while it runs.
    */
  private def windowCidRows(canon: DataFrame, matchAttrs: Seq[String]): Array[Row] = {
    val order = (matchAttrs :+ "I") ++ canon.columns.filterNot((matchAttrs :+ "I").contains)
    val logger = "org.apache.spark.sql.execution.window.WindowExec"
    val level = LogManager.getLogger(logger).getLevel
    Configurator.setLevel(logger, Level.ERROR)
    try canon.withColumn("cid", row_number().over(Window.orderBy(order.map(col): _*)).cast("long") - 1)
      .orderBy("cid").collect()
    finally Configurator.setLevel(logger, level)
  }

  private val nan = Double.NaN

  /** Rows that probe the cid order: "～" (U+FF5E) sorts before "😀"
    * (U+1F600) in UTF-8 but after it in UTF-16. Rows that tie on the key
    * columns differ in a later column, so the oracle's order has no ties but
    * identical rows.
    */
  private val edgeRows = Seq[(String, Any, Any, String, String)](
    ("😀", 1.0, 1.0, "u1", "x"), ("～", 1.0, 1.0, "u2", "x"), ("z", 1.0, 1.0, "u0", "x"),
    (null, 2.0, 1.0, "u3", "a"), (null, null, 1.0, null, null), (null, null, null, "u3", null),
    ("a", -0.0, 1.0, "u4", "c"), ("a", 0.0, 1.0, "u4", "b"), ("a", nan, 1.0, "u5", "a"),
    ("a", 5.0, 1.0, "u6", "a"), ("a", Double.PositiveInfinity, 1.0, "u6", "a"), ("a", -1.0, 1.0, "u6", "a"),
    ("b", 1.0, 0.0, "u7", "z"), ("b", 1.0, -0.0, "u7", "y"), ("b", 1.0, nan, "u7", "a"), ("b", 1.0, null, "u7", "a"),
    ("c", 1.0, 1.0, "u8", "e"), ("c", 1.0, 1.0, "u8", "e"), ("c", 1.0, 1.0, null, "e"), ("c", 1.0, 1.0, "u8", null),
    ("B", 1.0, 1.0, "u9", "e"), ("", 1.0, 1.0, "u9", "e"), ("é", 1.0, 1.0, "u9", "e"))

  /** `rows` shuffled into a relation (name, num, I, uid, extra). */
  private def edgeTable(rows: Seq[(String, Any, Any, String, String)]): DataFrame = {
    val schema = StructType(Seq(StructField("name", StringType), StructField("num", DoubleType),
      StructField("I", DoubleType), StructField("uid", StringType), StructField("extra", StringType)))
    spark.createDataFrame(
      java.util.Arrays.asList(new scala.util.Random(3).shuffle(rows).map { case (a, b, c, d, e) => Row(a, b, c, d, e) }: _*),
      schema)
  }

  test("cids follow Spark's sort order: nulls first, UTF-8 strings, -0.0 = 0.0, NaN last") {
    val df = edgeTable(edgeRows)
    val expected = withSevenPartitions(windowCidRows(df, Seq("name", "num"))).map(_.toString).toSeq
    assert(expected.size == edgeRows.size)
    for (input <- Seq(df, df.repartition(3), df.orderBy(col("extra").desc)))
      assert(Pipeline.withCid(input, Seq("name", "num")).orderBy("cid").collect().map(_.toString).toSeq == expected)
  }

  test("prepare gives its tuples in the reference cid order") {
    val df = edgeTable(edgeRows.filter(_._3 != null))
    // Key values as prepare collects them: strings, a null one empty.
    def str(v: Any) = if (v == null) "" else v.toString
    val expected = windowCidRows(df, Seq("name", "num")).toSeq.map(r =>
      (Seq(str(r.get(0)), str(r.get(1))), Stage1Digest.bits(r.getDouble(2)), str(r.get(4))))
    val p = Pipeline.prepare(df, df.repartition(3), Seq(KeyAttr("name"), KeyAttr("num", numeric = true)), Phi.Equiv)
    for (ts <- Seq(p.inst.t1, p.inst.t2))
      assert(ts.map(t => (t.key, Stage1Digest.bits(t.impact), t.attrs("extra"))) == expected)
  }

  test("a null numeric matching value scores 0 instead of failing stage 1") {
    import spark.implicits._
    def side(dob: String) = Seq(("ann lee", "F", "1950", 1.0, "p1"), ("bob ray", "M", dob, 1.0, "p2"))
      .toDF("name", "gender", "dob", "I", "uid")
    val p = Pipeline.prepare(side(null), side("1960"), ImdbQueries.personAttrs, Phi.Equiv)
    assert(p.stats.generated == 2 && p.inst.matches.size == 2)
    assert(p.gold.evidence == Set(("ann lee|F|1950", "ann lee|F|1950"), ("bob ray|M|", "bob ray|M|1960")))
  }

  test("stats report every stage-1 phase and the candidate count") {
    val s = prepared.stats
    assert((s.t1, s.t2, s.nMatches) == ((prepared.inst.t1.size, prepared.inst.t2.size, prepared.inst.matches.size)))
    // No floor: every generated pair is kept.
    assert(s.generated == s.nMatches)
    assert(Seq(s.tuplesS, s.goldS, s.candidatesS, s.calibrateS).forall(_ >= 0.0))
    assert(s.tuplesS + s.candidatesS > 0.0)
    // Each side's collect runs inside the tuples phase.
    assert(s.leftS > 0.0 && s.rightS > 0.0 && s.leftS <= s.tuplesS && s.rightS <= s.tuplesS, s)
    assert(s.labeled > 0 && s.labeled < s.nMatches, s.labeled)
    assert(s.trueLabels > 0 && s.trueLabels <= s.labeled, s.trueLabels)
    // Both canonical relations aggregate in one partition, so neither side's collect shuffles.
    assert(s.shuffles == 0, s)
  }

  test("stage-1 jobs carry a phase description and the caller's description is restored") {
    val sc = spark.sparkContext
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new org.apache.spark.scheduler.SparkListener {
      override def onJobStart(e: org.apache.spark.scheduler.SparkListenerJobStart): Unit =
        seen.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
    }
    val cfg = SyntheticGen.Config(n = 40, d = 0.2, v = 30, seed = 3)
    sc.addSparkListener(listener)
    sc.setJobDescription("caller")
    try {
      Pipeline.prepare(SyntheticGen.canonicalSide(spark, cfg, 1), SyntheticGen.canonicalSide(spark, cfg, 2),
        Seq(KeyAttr("match_attr")), Phi.Equiv)
      assert(sc.getLocalProperty("spark.job.description") == "caller")
      sc.parallelize(Seq(1)).count() // a caller job marks the end of prepare's jobs on the listener bus
      eventually(timeout(Span(30, Seconds))) { assert(seen.contains("caller")) }
    } finally {
      sc.setJobDescription(null)
      sc.removeSparkListener(listener)
    }
    val descs = seen.toArray(Array.empty[String]).toSeq.takeWhile(_ != "caller")
    // The collect of each side is stage 1's only Spark work.
    assert(descs.toSet == Set("stage 1: tuples"), descs.distinct)
  }

  private val cfg40 = SyntheticGen.Config(n = 40, d = 0.2, v = 30, seed = 5)

  /** Prepares the n=40 pair with `left` and `right` applied to its sides. */
  private def prepare40(left: DataFrame => DataFrame = identity, right: DataFrame => DataFrame = identity) =
    Pipeline.prepare(left(SyntheticGen.canonicalSide(spark, cfg40, 1)),
      right(SyntheticGen.canonicalSide(spark, cfg40, 2)), Seq(KeyAttr("match_attr")), Phi.Equiv)

  /** Runs `body` on a new thread, which starts with this thread's Spark
    * local properties, and waits a bounded time for it, so a hang fails the
    * test.
    */
  private def bounded[A](body: => A): Try[A] = {
    val result = new java.util.concurrent.atomic.AtomicReference[Try[A]]()
    new Thread(() => result.set(Try(body))).start()
    eventually(timeout(Span(120, Seconds))) { assert(result.get != null) }
    result.get
  }

  /** `match_attr` passed through a UDF that records, from inside the task,
    * whether the stage-1 thread is alive. With `fail` it throws that
    * message; `lagging`, its first call waits until a side has failed, then
    * half a second more, so this side is still collecting when the other
    * side's exception reaches `prepare`. The UDF refers to the companion
    * object only, so it serializes.
    */
  private def probed(fail: Option[String] = None, lagging: Boolean = false)(df: DataFrame): DataFrame = {
    val probe = udf { (s: String) =>
      import PipelineSpec._
      if (stage1ThreadAlive) stage1ThreadSeen.set(true)
      fail.foreach { msg => sideFailed.set(true); throw new IllegalStateException(msg) }
      if (lagging && lagged.compareAndSet(false, true)) {
        val deadline = System.nanoTime() + 20L * 1000000000L
        while (!sideFailed.get && System.nanoTime() < deadline) Thread.sleep(10)
        Thread.sleep(500)
      }
      s
    }
    df.withColumn("match_attr", probe(col("match_attr")))
  }

  test("a caller's job group reaches the jobs of both sides and stays the caller's") {
    val sc = spark.sparkContext
    // (description, job group, SQL execution id) of every job started.
    val jobs = new java.util.concurrent.ConcurrentLinkedQueue[(String, String, String)]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k))).getOrElse("")
        jobs.add((prop("spark.job.description"), prop("spark.jobGroup.id"), prop("spark.sql.execution.id")))
      }
    }
    // A job described `name` and in no group: the jobs between two markers
    // are prepare's, whatever other jobs the listener bus still holds.
    def marker(name: String): Unit = {
      sc.setJobDescription(name)
      try sc.parallelize(Seq(1)).count() finally sc.setJobDescription(null)
    }
    sc.addSparkListener(listener)
    val callerGroup = try {
      marker("start")
      sc.setJobGroup("prepare group", "caller")
      val got = bounded { prepare40(); sc.getLocalProperty("spark.jobGroup.id") }
      sc.clearJobGroup()
      marker("end")
      eventually(timeout(Span(30, Seconds))) { assert(jobs.asScala.exists(_._1 == "end")) }
      got.get
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
    assert(callerGroup == "prepare group")
    val stage1 = jobs.asScala.toSeq.dropWhile(_._1 != "start").drop(1).takeWhile(_._1 != "end")
    assert(stage1.nonEmpty && stage1.forall(j => j._1 == "stage 1: tuples" && j._2 == "prepare group"), stage1)
    // Each side's collect is one SQL execution.
    assert(stage1.map(_._3).distinct.size == 2, stage1)
  }

  test("the stage-1 thread runs the right side's collect and has ended when prepare returns") {
    PipelineSpec.stage1ThreadSeen.set(false)
    val p = bounded(prepare40(right = probed())).get
    assert(PipelineSpec.stage1ThreadSeen.get, "no right-side task ran while the stage-1 thread was alive")
    assert(!PipelineSpec.stage1ThreadAlive)
    assert(p.inst.matches == prepare40().inst.matches)
  }

  test("a side whose collect throws makes prepare throw that exception, and no stage-1 thread is left") {
    def causes(e: Throwable) = Iterator.iterate(e)(_.getCause).takeWhile(_ != null)
    for (side <- Seq("left", "right")) {
      val msg = s"$side side fails"
      PipelineSpec.sideFailed.set(false)
      PipelineSpec.lagged.set(false)
      val failing = probed(fail = Some(msg)) _
      val got = bounded(
        if (side == "left") prepare40(left = failing, right = probed(lagging = true))
        else prepare40(right = failing))
      val e = got.failed.getOrElse(fail(s"$side: prepare returned"))
      assert(causes(e).exists(c => c.isInstanceOf[IllegalStateException] && c.getMessage == msg), e)
      assert(!PipelineSpec.stage1ThreadAlive, side)
    }
  }

  test("prepared matches are strictly sorted by (left, right)") {
    // Strictly: one match per pair, in the edge order stage 2 relies on.
    val pairs = prepared.inst.matches.map(m => (m.left, m.right))
    pairs.iterator.sliding(2).withPartial(false).foreach { case Seq(a, b) =>
      assert(Ordering[(Long, Long)].lt(a, b), s"$a before $b")
    }
  }

  test("prepare releases the relations it caches") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.size
    prepare40()
    assert(sc.getPersistentRDDs.size == before)
  }

  test("prepared instance has plausible sizes") {
    val s = prepared.stats
    assert(s.t1 > 110 && s.t1 <= 150)
    assert(s.t2 > 110 && s.t2 <= 150)
    assert(s.nMatches >= s.t1.min(s.t2), "at least the true pairs must be candidates")
  }

  test("true matches receive high calibrated probabilities") {
    // A surviving pair shares its exact phrase → sim 1.0 → top bucket.
    val truePairs = prepared.gold.evidence
    val got = prepared.inst.matches
      .filter(m => truePairs.contains((prepared.keyOf(m.left)._2, prepared.keyOf(m.right)._2)))
    assert(got.nonEmpty)
    assert(got.forall(_.p > 0.8), s"min true p = ${got.map(_.p).min}")
  }

  test("EXPLAIN3D achieves near-perfect accuracy on synthetic data") {
    val res = Harness.run(Explain3DNoOpt(), prepared, "synthetic")
    assert(res.explanation.f1 > 0.9, s"explanation F1 = ${res.explanation}")
    assert(res.evidence.f1 > 0.9, s"evidence F1 = ${res.evidence}")
  }

  test("BATCH partitioned solve loses little to no accuracy") {
    val res = Harness.run(Explain3DBatch(50), prepared, "synthetic")
    assert(res.explanation.f1 > 0.85, s"explanation F1 = ${res.explanation}")
    assert(res.evidence.f1 > 0.85, s"evidence F1 = ${res.evidence}")
  }

  test("EXPLAIN3D beats THRESHOLD and EXACTCOVER on explanations") {
    val e3d = Harness.run(Explain3DNoOpt(), prepared, "s").explanation.f1
    val thr = Harness.run(Threshold(0.9), prepared, "s").explanation.f1
    val exc = Harness.run(ExactCover, prepared, "s").explanation.f1
    assert(e3d >= thr, s"e3d=$e3d thr=$thr")
    assert(e3d > exc, s"e3d=$e3d exactcover=$exc")
  }

  test("solver score equals scored decode on the prepared instance") {
    val sol = ExplainSolver.solve(prepared.inst)
    assert(Scoring.completenessViolation(prepared.inst, sol.explanations).isEmpty)
    assert(math.abs(Scoring.logProb(prepared.inst, sol.explanations) - sol.logProb) < 1e-6)
  }

  test("keyOf covers every tuple and evidence endpoints") {
    val ids = prepared.inst.tupleById.keySet
    assert(prepared.keyOf.keySet == ids)
  }

  test("a capped solve is reported and rendered as UNPROVED") {
    val capped = ExplainSolver.Config(nodeCap = 1L)
    for (algo <- Seq(Explain3DNoOpt(capped), Explain3DBatch(40, capped))) {
      val res = Harness.run(algo, prepared, "synthetic")
      assert(!res.proved, algo.name)
      assert(res.row.endsWith("UNPROVED"), res.row)
    }
    val proved = Harness.run(Explain3DNoOpt(), prepared, "synthetic")
    assert(proved.proved && !proved.row.contains("UNPROVED"))
  }

  test("all algorithms run end-to-end without error") {
    val algos = Seq(Explain3DNoOpt(), Explain3DBatch(40), Threshold(0.9), Greedy,
      RSwoosh(), ExactCover, FormalExp(15))
    val rows = algos.map(a => Harness.run(a, prepared, "synthetic"))
    assert(rows.map(_.algorithm).distinct.size == algos.size)
  }
}

object PipelineSpec {
  import java.util.concurrent.atomic.AtomicBoolean

  def stage1ThreadAlive: Boolean =
    Thread.getAllStackTraces.keySet.asScala.exists(t => t.getName == Pipeline.RightSideThread && t.isAlive)

  /** Set by a probe UDF when a task of it runs while the stage-1 thread is alive. */
  val stage1ThreadSeen = new AtomicBoolean(false)
  /** Set by a probe UDF just before it throws. */
  val sideFailed = new AtomicBoolean(false)
  /** Set by the first call of a lagging probe UDF. */
  val lagged = new AtomicBoolean(false)
}

package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core.{ExplainSolver, Pipeline, Scoring, Summarize}
import repro.core.Model.{Instance, Solution}
import repro.eval.Metrics
import repro.partition.SmartPartition
import scala.collection.mutable.ArrayBuffer

/** Time to explanation for Explain3D under NOOPT and BATCH-100.
  *
  * Each pass takes every pair of the workload through stage 1
  * (`Pipeline.prepare`), stage 2 twice (NOOPT: `ExplainSolver.solve`;
  * BATCH-100: `SmartPartition.solve`) and stage 3 (`Summarize.summarize`)
  * once per stage-2 result. Every result is checked for completeness and
  * for a logProb that matches an independent rescoring.
  *
  * Untraced passes give the end-to-end metrics. With `--trace 1`, traced
  * and untraced passes alternate: a traced pass also calls each stage-1 and
  * partitioning layer on its own, timing it and counting its work and its
  * Spark tasks, and the two kinds of pass together give the tracing
  * overhead. The last line on stdout is the result as one JSON object.
  */
object Bench {

  /** A per-component node budget makes a capped solve stop at the same
    * incumbent on every run; the wall-clock limit is only a backstop. On
    * every seed tried, 20,000 nodes reach the same objectives as 100,000.
    */
  val SolverCfg: ExplainSolver.Config = ExplainSolver.Config(nodeCap = 20000L, timeLimitMs = 120000L)
  val BatchCfg: SmartPartition.Config = SmartPartition.Config(batchSize = 100)

  final case class Opts(
      workload: String = "",
      seed: Option[Long] = None,
      seconds: Double = 10,
      trace: Boolean = false,
      spansOut: Option[String] = None,
  )

  /** Spark runs in-process on two cores, one shuffle partition each. With a
    * task slot for every core of a small shared host, each stage waited for
    * whichever task lost its core to the JIT, the GC or another tenant; in
    * runs interleaved with two-core runs, pass times spread about twice as
    * wide between runs and were no faster.
    */
  val Cores: Int = math.min(2, Runtime.getRuntime.availableProcessors)
  /** Set-ups per run; setup_s is their median, so not one cold start. */
  val Setups = 3

  /** Result of one stage-2 configuration on one pair, with its stage-3 summary. */
  final case class Outcome(solveS: Double, summarizeS: Double, logProb: Double, proved: Boolean,
      explF1: Double, evidF1: Double, problem: Option[String])

  final case class PairRun(name: String, tuples: Int, prepareS: Double, noopt: Outcome, batch: Outcome,
      liveHeapMb: Double) {
    def outcomes: Seq[Outcome] = Seq(noopt, batch)
  }

  final case class Pass(runs: Seq[PairRun], wallS: Double)

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList, Opts())
    val workload = Workloads.byName(o.workload)
    val seed = o.seed.getOrElse(workload.defaultSeed)

    // Set-up: session start, input definition and a warm-up pass, each time
    // on a fresh session.
    val setupTimes = ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var pairs: Seq[PairInput] = Nil
    val warmups = ArrayBuffer.empty[Pass]
    for (_ <- 0 until Setups) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session()
      pairs = workload.define(spark, seed)
      warmups += runPass(spark, pairs, Tracer.off, measureHeap = false)
      setupTimes += (System.nanoTime() - t0) / 1e9
    }
    header(o, spark, seed, setupTimes.toSeq)

    val listener = new TaskListener
    val tracer = if (o.trace) new Tracer(Some(spark.sparkContext)) else Tracer.off
    if (o.trace) spark.sparkContext.addSparkListener(listener)

    // Passes run back to back while the next one, judged by the last of its
    // kind, ends inside the measurement window; at least one of each kind.
    val untraced = ArrayBuffer.empty[Pass]
    val traced = ArrayBuffer.empty[Pass]
    val t0 = System.nanoTime()
    def nextTraced = o.trace && untraced.size > traced.size
    def fits = {
      val last = if (nextTraced) traced.lastOption else untraced.lastOption
      last.forall(p => (System.nanoTime() - t0) / 1e9 + p.wallS <= o.seconds)
    }
    while (untraced.isEmpty || (o.trace && traced.isEmpty) || fits) {
      if (nextTraced) {
        tracer.pass = traced.size
        traced += runPass(spark, pairs, tracer, measureHeap = false)
      } else untraced += runPass(spark, pairs, Tracer.off, measureHeap = !o.trace)
    }
    spark.catalog.clearCache()
    spark.stop() // drains the listener bus before the task records are read

    val all = warmups ++ untraced ++ traced
    val measured = untraced ++ traced
    val problems = all.flatMap(_.runs).flatMap(r => r.outcomes.flatMap(_.problem).map(p => s"${r.name}: $p"))
    val correct = problems.isEmpty
    val attempted = measured.map(_.runs.size * 2).sum
    val failed = measured.flatMap(_.runs).flatMap(_.outcomes).count(x => !x.proved || x.problem.nonEmpty)

    untraced.last.runs.foreach(r => Console.err.println(describe(r)))
    for ((kind, ps) <- Seq("warm-up" -> warmups, "untraced" -> untraced, "traced" -> traced) if ps.nonEmpty)
      Console.err.println(s"[perfbench] $kind pass seconds: " + ps.map(p => f"${p.wallS}%.3f").mkString(" "))
    problems.distinct.foreach(p => Console.err.println(s"[perfbench] FAILED CHECK $p"))
    Console.err.println(s"[perfbench] passes: ${untraced.size} untraced, ${traced.size} traced; " +
      s"failed solves $failed of $attempted attempted")

    val metrics =
      if (!o.trace) endToEnd(untraced.toSeq, setupTimes.toSeq)
      else {
        val spans = tracer.recorded
        o.spansOut.foreach(path => writeSpans(path, spans, listener.tasks))
        Layers.metrics(spans, listener.tasks, traced.size) +
          ("trace.overhead" -> (median(traced.map(_.wallS).toSeq) / median(untraced.map(_.wallS).toSeq), "ratio"))
      }
    println(resultJson(correct, attempted, failed, metrics))
  }

  private def parse(args: List[String], o: Opts): Opts = args match {
    case Nil                          => o
    case "--workload" :: v :: rest    => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest        => parse(rest, o.copy(seed = Some(v.toLong)))
    case "--seconds" :: v :: rest     => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest       => parse(rest, o.copy(trace = v == "1"))
    case "--spans" :: v :: rest       => parse(rest, o.copy(spansOut = Some(v)))
    case other :: _                   => throw new IllegalArgumentException(s"unknown argument $other")
  }

  private def header(o: Opts, spark: SparkSession, seed: Long, setupTimes: Seq[Double]): Unit = {
    val conf = spark.sparkContext.getConf
    Console.err.println(
      s"[perfbench] workload=${o.workload} seed=$seed trace=${if (o.trace) 1 else 0} seconds=${o.seconds} " +
        s"master=${spark.sparkContext.master} " +
        s"shufflePartitions=${conf.get("spark.sql.shuffle.partitions")} " +
        s"heapMb=${Runtime.getRuntime.maxMemory / (1 << 20)} spark=${spark.version} " +
        s"jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")} " +
        s"solverNodeCap=${SolverCfg.nodeCap} solverTimeLimitMs=${SolverCfg.timeLimitMs} " +
        s"setups=${setupTimes.map(t => f"$t%.3f").mkString(",")}s")
  }

  private def describe(r: PairRun): String = {
    def flag(x: Outcome) = if (x.proved) "proved" else "UNPROVED"
    f"[perfbench] ${r.name}%-16s prepare=${r.prepareS}%.3fs " +
      f"noopt=${r.noopt.solveS}%.3fs obj=${r.noopt.logProb}%.4f ${flag(r.noopt)} | " +
      f"batch100=${r.batch.solveS}%.3fs obj=${r.batch.logProb}%.4f ${flag(r.batch)} (within partitions) " +
      f"gap=${r.noopt.logProb - r.batch.logProb}%.4f"
  }

  private def endToEnd(passes: Seq[Pass], setupTimes: Seq[Double]): Map[String, (Double, String)] = {
    def perPass(f: Seq[PairRun] => Double) = median(passes.map(p => f(p.runs)))
    def mean(rs: Seq[PairRun], f: PairRun => Double) = rs.map(f).sum / rs.size
    Map(
      "setup_s" -> (median(setupTimes), "s"),
      "noopt_s" -> (perPass(_.map(r => r.prepareS + r.noopt.solveS + r.noopt.summarizeS).sum), "s"),
      "batch100_s" -> (perPass(_.map(r => r.prepareS + r.batch.solveS + r.batch.summarizeS).sum), "s"),
      // −Σ logProb per canonical tuple: the objective, on a scale that does
      // not grow with the number of tuples a seed happens to generate.
      "cost_noopt" -> (perPass(rs => rs.map(-_.noopt.logProb).sum / rs.map(_.tuples).sum), "nats/tuple"),
      "cost_batch100" -> (perPass(rs => rs.map(-_.batch.logProb).sum / rs.map(_.tuples).sum), "nats/tuple"),
      "expl_f1_noopt" -> (perPass(mean(_, _.noopt.explF1)), "f1"),
      "evid_f1_noopt" -> (perPass(mean(_, _.noopt.evidF1)), "f1"),
      "expl_f1_batch100" -> (perPass(mean(_, _.batch.explF1)), "f1"),
      "evid_f1_batch100" -> (perPass(mean(_, _.batch.evidF1)), "f1"),
      "live_heap_mb" -> (perPass(_.map(_.liveHeapMb).max), "MB"),
    )
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Map[String, (Double, String)]): String = {
    val ms = metrics.toSeq.sortBy(_._1).map { case (k, (v, u)) =>
      s""""$k": {"value": ${jsonNumber(v)}, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def jsonNumber(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  private def writeSpans(path: String, spans: Seq[Span], tasks: Seq[TaskRecord]): Unit = {
    val bySpan = tasks.groupBy(_.span)
    val lines = spans.map { s =>
      val ts = bySpan.getOrElse(s.id, Nil)
      val counts = s.counts.map { case (k, v) => s""""$k": ${jsonNumber(v)}""" }.mkString(", ")
      s"""{"id": ${s.id}, "pass": ${s.pass}, "pair": "${s.pair}", "name": "${s.name}", """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "tasks": ${ts.size}, """ +
        s""""failed_tasks": ${ts.count(_.failed)}, "shuffle_write_bytes": ${ts.map(_.shuffleWriteBytes).sum}, """ +
        s""""max_task_ms": ${ts.map(_.durationMs).maxOption.getOrElse(0L)}, """ +
        s""""median_task_ms": ${jsonNumber(median(ts.map(_.durationMs.toDouble)))}, """ +
        s""""counts": {$counts}}"""
    }
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    java.nio.file.Files.writeString(f.toPath, lines.mkString("[\n", ",\n", "\n]\n"))
  }

  private def session(): SparkSession = {
    val b = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("explain3d-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", Cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    val s = b.getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def runPass(spark: SparkSession, pairs: Seq[PairInput], tracer: Tracer, measureHeap: Boolean): Pass = {
    val t0 = System.nanoTime()
    var heapNs = 0L
    val runs = pairs.map { p =>
      tracer.pair = p.name
      val (run, ns) = runPair(spark, p, tracer, measureHeap)
      heapNs += ns
      run
    }
    Pass(runs, (System.nanoTime() - t0 - heapNs) / 1e9)
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Runs one pair; returns it with the nanoseconds spent measuring the heap. */
  private def runPair(spark: SparkSession, p: PairInput, tracer: Tracer, measureHeap: Boolean): (PairRun, Long) = {
    // Pipeline.prepare caches its canonical relations and never releases
    // them; without this every pair after the first would reuse them.
    spark.catalog.clearCache()
    try {
      if (tracer.enabled) Layers.stage1(spark, p, tracer)
      val (pair, prepS) = timed(tracer.span("core.prepare")(Pipeline.prepare(p.left, p.right, p.attrs, p.phi)))
      val inst = pair.inst
      if (tracer.enabled) Layers.graph(inst, tracer)

      val (noopt, nooptS) = timed(tracer.span("core.solve_noopt",
        (s: Solution) => Map("core.solve_noopt.unproved" -> (if (s.proved) 0.0 else 1.0)))(
        ExplainSolver.solve(inst, SolverCfg)))
      val (nooptSum, nooptSumS) = timed(summarize(inst, noopt, tracer))
      if (tracer.enabled) Layers.partitioning(inst, tracer)
      val (batch, batchS) = timed(tracer.span("partition.solve_batch100",
        (s: Solution) => Map("partition.solve_batch100.unproved" -> (if (s.proved) 0.0 else 1.0)))(
        SmartPartition.solve(inst, BatchCfg, SolverCfg)))
      val (batchSum, batchSumS) = timed(summarize(inst, batch, tracer))

      val (nooptProblem, batchProblem) = tracer.span("core.scoring.check",
        (_: (Option[String], Option[String])) => Map("core.evidence.size" -> noopt.explanations.evidence.size.toDouble))(
        (check(inst, noopt, None), check(inst, batch, Some(noopt))))
      tracer.note("core.similarity", Map("core.similarity.useful" -> noopt.explanations.evidence.size.toDouble))

      def outcome(s: Solution, solveS: Double, sumS: Double, problem: Option[String]) = Outcome(
        solveS, sumS, s.logProb, s.proved,
        Metrics.prf(Metrics.explanationItems(s.explanations, pair.keyOf), pair.gold.explanations).f1,
        Metrics.prf(Metrics.evidenceItems(s.explanations, pair.keyOf), pair.gold.evidence).f1,
        problem)
      val run = PairRun(p.name, inst.t1.size + inst.t2.size, prepS,
        outcome(noopt, nooptS, nooptSumS, nooptProblem),
        outcome(batch, batchS, batchSumS, batchProblem), 0.0)

      if (!measureHeap) (run, 0L)
      else {
        // Outside every timed span, with the prepared pair and both
        // solutions still reachable.
        val t0 = System.nanoTime()
        val mb = liveHeapMb()
        Seq(pair, noopt, batch, nooptSum, batchSum).foreach(java.lang.ref.Reference.reachabilityFence)
        (run.copy(liveHeapMb = mb), System.nanoTime() - t0)
      }
    } catch {
      case e: Exception =>
        val failed = Outcome(0, 0, Double.NegativeInfinity, proved = false, 0, 0, Some(s"exception: $e"))
        (PairRun(p.name, 0, 0, failed, failed, 0), 0L)
    }
  }

  private def summarize(inst: Instance, s: Solution, tracer: Tracer): Summarize.Summary = {
    val targetIds = s.explanations.explanationTupleIds
    val (targets, others) = (inst.t1 ++ inst.t2).partition(t => targetIds.contains(t.id))
    tracer.span("core.summarize",
      (sm: Summarize.Summary) => Map("core.summarize.targets" -> targets.size.toDouble, "core.summarize.es" -> sm.size.toDouble))(
      Summarize.summarize(targets.map(_.attrs), others.map(_.attrs)))
  }

  /** Completeness (Def. 3.4), the solver's logProb against a rescoring, and
    * for BATCH-100 that it does not beat a proved NOOPT optimum.
    */
  private def check(inst: Instance, s: Solution, optimum: Option[Solution]): Option[String] = {
    val e = s.explanations
    Scoring.completenessViolation(inst, e).map(v => s"incomplete explanation: $v").orElse {
      val rescored = Scoring.logProb(inst, e)
      val tol = 1e-9 * (math.abs(rescored) + inst.t1.size + inst.t2.size + inst.matches.size)
      if (!(math.abs(rescored - s.logProb) <= tol)) Some(s"logProb ${s.logProb} != rescored $rescored")
      else optimum.collect {
        case opt if opt.proved && s.logProb > opt.logProb + tol =>
          s"partitioned objective ${s.logProb} beats the proved optimum ${opt.logProb}"
      }
    }
  }

  private def liveHeapMb(): Double = {
    val mx = ManagementFactory.getMemoryMXBean
    mx.gc()
    mx.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

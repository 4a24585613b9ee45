package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core.{Calibration, Pipeline, Scoring, Similarity}
import repro.core.Model.Instance
import repro.eval.Gold
import repro.partition.{Partitioner, PrePartition, SmartPartition}

/** The traced pass's calls into single layers, and the per-layer metrics
  * built from the spans they record.
  */
object Layers {

  /** Stage 1 one layer at a time, each materialized and cached before the
    * next, so each span holds its own layer's work. The cache is cleared
    * afterwards so the whole `Pipeline.prepare` that follows starts cold.
    */
  def stage1(spark: SparkSession, p: PairInput, tracer: Tracer): Unit = {
    val matchAttrs = p.attrs.map(_.name)
    tracer.span("core.canon", (n: Long) => Map("core.canon.rows" -> n.toDouble))(
      p.left.cache().count() + p.right.cache().count())
    val (lc, rc) = tracer.span("core.withcid") {
      val lc = Pipeline.withCid(p.left, matchAttrs).cache()
      val rc = Pipeline.withCid(p.right, matchAttrs).cache()
      lc.count(); rc.count()
      (lc, rc)
    }
    val sims = Similarity.candidatePairs(lc, rc, p.attrs).cache()
    tracer.span("core.similarity", (n: Long) => Map("core.similarity.pairs" -> n.toDouble))(sims.count())
    // The calibration labels, built as Pipeline.prepare builds them.
    val goldEvidence = lc.filter(col("uid").isNotNull).select(col("cid").as("lid"), col("uid").as("l_uid"))
      .join(rc.filter(col("uid").isNotNull).select(col("cid").as("rid"), col("uid").as("r_uid")),
        col("l_uid") === col("r_uid"))
      .select("lid", "rid")
    tracer.span("core.calibration", (n: Long) => Map("core.calibration.matches" -> n.toDouble))(
      Calibration.calibrate(sims, goldEvidence).count())
    tracer.span("eval.gold", (g: Gold.GoldStandard) =>
      Map("eval.gold.items" -> (g.explanations.size + g.evidence.size).toDouble))(
      Gold.derive(lc, rc, matchAttrs, p.phi))
    spark.catalog.clearCache()
  }

  /** Shape of the candidate graph the stage-2 solvers see (not timed). */
  def graph(inst: Instance, tracer: Tracer): Unit = {
    val uf = new Scoring.UnionFind(inst.tupleById.keys)
    inst.matches.foreach(m => uf.union(m.left, m.right))
    val sizes = inst.matches.groupBy(m => uf.find(m.left)).values.map(_.size)
    tracer.note("core.graph", Map(
      "core.graph.matches" -> inst.matches.size.toDouble,
      "core.graph.components" -> sizes.size.toDouble,
      "core.graph.largest_component" -> sizes.maxOption.getOrElse(0).toDouble))
  }

  /** The three steps of BATCH-100's partitioning, each on its own. */
  def partitioning(inst: Instance, tracer: Tracer): Unit = {
    val cfg = Bench.BatchCfg
    val coarse = tracer.span("partition.prepartition",
      (g: PrePartition.CoarseGraph) => Map("partition.prepartition.coarse_nodes" -> g.nodes.size.toDouble))(
      PrePartition.run(inst, cfg.pre))
    // k as SmartPartition.split derives it.
    val k = math.max(1, math.ceil((inst.t1.size + inst.t2.size).toDouble / cfg.batchSize).toInt)
    val assign = tracer.span("partition.partitioner",
      (a: Array[Int]) => Map("partition.partitioner.parts" -> (if (a.isEmpty) 0.0 else a.max + 1.0)))(
      Partitioner.partition(coarse, k, cfg.batchSize))
    tracer.note("partition.partitioner", Map("partition.partitioner.edge_cut" -> Partitioner.edgeCut(coarse, assign)))
    tracer.span("partition.split", (s: SmartPartition.Partitioned) => Map(
      "partition.split.cut" -> s.cutMatches.size.toDouble,
      "partition.split.matches" -> inst.matches.size.toDouble))(
      SmartPartition.split(inst, cfg))
  }

  /** Per-layer metrics and their units, in report order. */
  val units: Seq[(String, String)] = Seq(
    "core.canon.s" -> "s", "core.canon.rows" -> "count", "core.canon.tasks" -> "count",
    "core.withcid.s" -> "s", "core.withcid.task_skew" -> "ratio",
    "core.similarity.s" -> "s", "core.similarity.pairs" -> "count",
    "core.similarity.shuffle_mb" -> "MB", "core.similarity.useful_ratio" -> "ratio",
    "core.calibration.s" -> "s", "core.calibration.matches" -> "count",
    "eval.gold.s" -> "s", "eval.gold.items" -> "count",
    "core.prepare.s" -> "s", "core.prepare.rest_s" -> "s",
    "core.prepare.tasks" -> "count", "core.prepare.shuffle_mb" -> "MB",
    "core.graph.matches" -> "count", "core.graph.components" -> "count",
    "core.graph.largest_component" -> "count",
    "core.solve_noopt.s" -> "s", "core.solve_noopt.unproved" -> "count",
    "partition.prepartition.s" -> "s", "partition.prepartition.coarse_nodes" -> "count",
    "partition.partitioner.s" -> "s", "partition.partitioner.parts" -> "count",
    "partition.partitioner.edge_cut" -> "weight",
    "partition.split.s" -> "s", "partition.split.cut_ratio" -> "ratio",
    "partition.solve_batch100.s" -> "s", "partition.solve_batch100.subsolve_s" -> "s",
    "partition.solve_batch100.unproved" -> "count",
    "core.summarize.s" -> "s", "core.summarize.targets" -> "count", "core.summarize.es" -> "count",
    "core.scoring.check.s" -> "s", "core.evidence.size" -> "count",
    "spark.failed_tasks" -> "count",
  )

  /** Counts that take the maximum over pairs; every other count is summed. */
  private val maxOverPairs = Set("core.graph.largest_component", "core.withcid.task_skew")

  private val stage1Layers = Seq("core.canon", "core.withcid", "core.similarity", "core.calibration", "eval.gold")

  /** The per-layer metrics of each traced pass, then their median over passes. */
  def metrics(spans: Seq[Span], tasks: Seq[TaskRecord], passes: Int): Map[String, (Double, String)] = {
    val tasksBySpan = tasks.groupBy(_.span)
    val perPass = (0 until passes).map { pass =>
      val ss = spans.filter(_.pass == pass)
      val v = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
      def add(k: String, x: Double): Unit = v(k) = if (maxOverPairs(k)) math.max(v(k), x) else v(k) + x
      ss.foreach { s =>
        add(s"${s.name}.s", s.seconds)
        s.counts.foreach { case (k, x) => add(k, x) }
        val ts = tasksBySpan.getOrElse(s.id, Nil)
        add(s"${s.name}.tasks", ts.size)
        add(s"${s.name}.shuffle_mb", ts.map(_.shuffleWriteBytes).sum / 1e6)
        add("spark.failed_tasks", ts.count(_.failed))
        if (ts.nonEmpty) {
          val d = ts.map(_.durationMs.toDouble)
          add(s"${s.name}.task_skew", d.max / math.max(1.0, Bench.median(d)))
        }
      }
      v("core.prepare.rest_s") = v("core.prepare.s") - stage1Layers.map(l => v(s"$l.s")).sum
      v("partition.solve_batch100.subsolve_s") = v("partition.solve_batch100.s") - v("partition.split.s")
      v("core.similarity.useful_ratio") = v("core.similarity.useful") / math.max(1.0, v("core.similarity.pairs"))
      v("partition.split.cut_ratio") = v("partition.split.cut") / math.max(1.0, v("partition.split.matches"))
      v
    }
    units.map { case (k, u) => k -> (Bench.median(perPass.map(_(k))), u) }.toMap
  }
}

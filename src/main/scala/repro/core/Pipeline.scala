package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.core.Model._
import repro.core.Similarity.KeyAttr
import repro.eval.Gold
import scala.jdk.CollectionConverters._

/** Stage-1 orchestration: canonical relations → candidate matches →
  * calibrated probabilities → an in-driver [[Model.Instance]], the gold
  * standard, and the id→key translation used by metrics.
  *
  * Spark does the heavy lifting over provenance-scale data (provenance and
  * canonicalization) and tokenizes; [[prepare]] then collects each side's
  * canonical relation once — orders of magnitude smaller than the raw
  * datasets — mirroring the paper's CPLEX architecture. The two sides are
  * disjoint, so their collects run concurrently: the left side's on the
  * caller's thread, the right side's on one more. Spark sorts each side
  * into cid order in its collect; the similarity join, gold derivation and
  * calibration are driver passes over those rows, so the output depends
  * only on the canonical relations, not on their partitioning or caching.
  */
object Pipeline {

  final case class PreparedPair(
      inst: Instance,
      keyOf: Map[Long, (Int, String)],
      gold: Gold.GoldStandard,
      stats: PairStats,
  )

  /** What stage 1 produced for one pair and where its time went: the
    * tuple counts, the candidate pairs the similarity join generated and
    * the matches kept at the floor, the calibration's labeled pairs and true
    * labels among them, and wall seconds of each phase of [[prepare]] in run
    * order (the tuple collect and cid order, gold derivation, the
    * similarity join, calibration). The two sides collect concurrently, so
    * `leftS` and `rightS`, each side's own collect and cid order, can sum
    * to more than `tuplesS`. `compiled` is the number of classes Spark's
    * code generator compiled while [[prepare]] ran, cache misses of its
    * codegen cache; the count is process-wide, so it includes compilations
    * of any other Spark work that ran at the same time. `shuffles` is the
    * number of shuffle exchanges in the two sides' executed plans, AQE
    * query stages included.
    */
  final case class PairStats(
      t1: Int,
      t2: Int,
      nMatches: Int,
      generated: Int = 0,
      labeled: Int = 0,
      trueLabels: Int = 0,
      tuplesS: Double = 0.0,
      leftS: Double = 0.0,
      rightS: Double = 0.0,
      goldS: Double = 0.0,
      candidatesS: Double = 0.0,
      calibrateS: Double = 0.0,
      compiled: Long = 0L,
      shuffles: Int = 0,
  ) {
    def phases: String =
      f"stage 1: tuples $tuplesS%.3fs (left $leftS%.3fs, right $rightS%.3fs), gold $goldS%.3fs, " +
        f"candidates $candidatesS%.3fs, calibrate $calibrateS%.3fs; $generated pairs generated, " +
        f"$nMatches candidate matches kept, $labeled labeled ($trueLabels true), " +
        f"$compiled classes compiled, $shuffles shuffles"
  }

  object PairStats {
    /** Field-wise mean; counts use integer division. */
    def mean(ss: Seq[PairStats]): PairStats = {
      val n = ss.size
      PairStats(ss.map(_.t1).sum / n, ss.map(_.t2).sum / n, ss.map(_.nMatches).sum / n,
        ss.map(_.generated).sum / n, ss.map(_.labeled).sum / n, ss.map(_.trueLabels).sum / n,
        ss.map(_.tuplesS).sum / n, ss.map(_.leftS).sum / n, ss.map(_.rightS).sum / n,
        ss.map(_.goldS).sum / n, ss.map(_.candidatesS).sum / n, ss.map(_.calibrateS).sum / n,
        ss.map(_.compiled).sum / n, ss.map(_.shuffles).sum / n)
    }
  }

  private val JobDescription = "spark.job.description"

  /** Runs one phase of [[prepare]] with its Spark jobs described as
    * `stage 1: <name>`, then restores the caller's job description.
    * Returns the result and the phase's wall seconds.
    */
  private def phase[A](sc: SparkContext, name: String)(body: => A): (A, Double) = {
    val caller = sc.getLocalProperty(JobDescription)
    sc.setJobDescription(s"stage 1: $name")
    val t0 = System.nanoTime()
    try {
      val a = body
      (a, (System.nanoTime() - t0) / 1e9)
    } finally sc.setLocalProperty(JobDescription, caller)
  }

  /** The name of the thread on which [[prepare]] collects the right side. */
  private[core] val RightSideThread = "explain3d stage 1: right side"

  /** Runs `a` on the calling thread and `b` on a new thread, and returns
    * both results once both have finished; the new thread has ended when
    * this returns or throws. The new thread starts with a copy of the
    * caller's Spark local properties (job group, job description), so its
    * jobs carry them and nothing it sets reaches the caller. An exception
    * of `a` is rethrown first, one of `b` after it.
    */
  private def concurrently[A, B](a: => A, b: => B): (A, B) = {
    var rb: Either[Throwable, B] = null
    val thread = new Thread(() => rb = try Right(b) catch { case e: Throwable => Left(e) }, RightSideThread)
    thread.start()
    // join() also makes the thread's write of rb visible here.
    val ra = try a finally thread.join()
    (ra, rb.fold(e => throw e, identity))
  }

  /** `canon` in cid order: Spark's ascending sort on the matching
    * attributes, `I`, then every other column in schema order, so only
    * identical rows tie. On a one-partition relation, such as every
    * canonical one, the sort runs in the collect's own task, with no
    * exchange.
    */
  private def inCidOrder(canon: DataFrame, matchAttrs: Seq[String]): DataFrame = {
    val head = matchAttrs :+ "I"
    canon.orderBy((head ++ canon.columns.filterNot(head.contains)).map(col): _*)
  }

  /** `canon` with a deterministic 0-based `cid` column, as a local
    * relation: the rows are collected and numbered in the order `prepare`
    * gives its tuples.
    */
  def withCid(canon: DataFrame, matchAttrs: Seq[String]): DataFrame = {
    val rows = inCidOrder(canon, matchAttrs).collect()
    val numbered = rows.iterator.zipWithIndex.map { case (r, cid) => Row.fromSeq(r.toSeq :+ cid.toLong) }
    canon.sparkSession.createDataFrame(numbered.toSeq.asJava, canon.schema.add("cid", LongType, nullable = false))
  }

  /** The shuffle exchanges in `df`'s executed plan, those inside AQE query
    * stages included; after a collect, AQE's final plan is the one counted.
    */
  private[core] def shuffles(df: DataFrame): Int =
    AdaptivePlans.collect(df.queryExecution.executedPlan) { case s: ShuffleExchangeLike => s }.size

  private object AdaptivePlans extends AdaptiveSparkPlanHelper

  /** Full stage-1 preparation of one comparable query pair, under the
    * default priors and calibration. The similarity join emits each
    * (lid, rid) once and in order, so the matches come out sorted.
    */
  def prepare(
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      simFloor: Double = 0.0,
  ): PreparedPair = {
    val matchAttrs = attrs.map(_.name)
    val sc = leftCanon.sparkSession.sparkContext
    val compiled0 = CodegenMetrics.METRIC_COMPILATION_TIME.getCount

    /** One side's collect and tuple build. From column 0 a collected row
      * holds the similarity features, the matching attributes and extras as
      * strings, `I` as a double and `uid` as a string.
      */
    final class Side(df: DataFrame, side: Int) {
      // Any column beyond (matchAttrs, I, uid) is an extra provenance
      // attribute carried for stage-3 summarization.
      private val extras = df.columns.toSeq.diff(matchAttrs ++ Seq("I", "uid"))
      private val strAt = attrs.size
      private val iIdx = strAt + matchAttrs.size + extras.size

      /** The side's rows, collected once in cid order, the wall seconds
        * they took, and the shuffles the collect ran.
        */
      def collect(): (IndexedSeq[Row], Double, Int) = {
        val t0 = System.nanoTime()
        val cols = Similarity.features(attrs) ++
          (matchAttrs ++ extras).map(c => coalesce(col(c).cast("string"), lit(""))) ++
          Seq(col("I").cast("double"), col("uid").cast("string"))
        val projected = inCidOrder(df, matchAttrs).select(cols: _*)
        val rows = projected.collect().toIndexedSeq
        (rows, (System.nanoTime() - t0) / 1e9, shuffles(projected))
      }

      /** Tuple id = cid + offset. */
      def tuples(rows: IndexedSeq[Row], offset: Long): Vector[CTuple] =
        rows.iterator.zipWithIndex.map { case (r, cid) =>
          val key = matchAttrs.indices.map(i => r.getString(strAt + i))
          val extraVals = extras.indices.map(i => r.getString(strAt + matchAttrs.size + i))
          CTuple(cid + offset, side, key, r.getDouble(iIdx),
            matchAttrs.zip(key).toMap ++ extras.zip(extraVals).toMap)
        }.toVector

      /** Each tuple's `uid`, in cid order. */
      def uids(rows: IndexedSeq[Row]): IndexedSeq[String] = rows.map(_.getString(iIdx + 1))
    }
    val (left, right) = (new Side(leftCanon, 1), new Side(rightCanon, 2))
    val (((lRows, leftS, lShuffles), (rRows, rightS, rShuffles)), tuplesS) =
      phase(sc, "tuples")(concurrently(left.collect(), right.collect()))
    val offset = lRows.size.toLong
    val (t1, t2) = (left.tuples(lRows, 0L), right.tuples(rRows, offset))
    val (lUids, rUids) = (left.uids(lRows), right.uids(rRows))
    val keyOf = (t1 ++ t2).map(t => t.id -> (t.side, t.key.mkString("|"))).toMap

    def entries(ts: Vector[CTuple], uids: IndexedSeq[String]) =
      ts.zip(uids).map { case (t, u) => Gold.Entry(keyOf(t.id)._2, t.impact, u) }
    val (gold, goldS) = phase(sc, "gold")(Gold.derive(entries(t1, lUids), entries(t2, rUids), phi))

    // simFloor models the blocking step of practical linkage systems: pairs
    // below the floor never become candidates (zero-overlap pairs already
    // don't). 0.0 keeps every token-sharing pair.
    val (cands, candidatesS) = phase(sc, "candidates")(
      Similarity.join(lRows, rRows, attrs, simFloor))
    val lid = cands.lid.map(_.toLong)
    val rid = cands.rid.map(_.toLong)
    // Both uids equal and non-null: the pair is a gold evidence pair.
    def isTrue(i: Long, j: Long): Boolean = {
      val u = lUids(i.toInt)
      u != null && u == rUids(j.toInt)
    }
    val (cal, calibrateS) = phase(sc, "calibrate")(Calibration.probabilities(lid, rid, cands.sim, isTrue))
    val matches = Vector.tabulate(lid.length)(i => TupleMatch(lid(i), rid(i) + offset, cal.p(i)))

    val inst = Instance(t1, t2, matches, phi)
    PreparedPair(inst, keyOf, gold, PairStats(t1.size, t2.size, matches.size, cands.generated,
      cal.labeled, cal.trues, tuplesS, leftS, rightS, goldS, candidatesS, calibrateS,
      CodegenMetrics.METRIC_COMPILATION_TIME.getCount - compiled0, lShuffles + rShuffles))
  }
}

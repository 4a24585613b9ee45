package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Model._
import repro.core.Similarity.KeyAttr
import repro.eval.Gold

/** Stage-1 orchestration: canonical relations → candidate matches →
  * calibrated probabilities → an in-driver [[Model.Instance]], the gold
  * standard, and the id→key translation used by metrics.
  *
  * Spark does the heavy lifting (canonicalization and the similarity join
  * over provenance-scale data); only the canonical relations and the
  * candidate pairs — orders of magnitude smaller than the raw datasets —
  * are collected, mirroring the paper's CPLEX architecture. Gold derivation
  * and calibration then run on the driver over those collected rows.
  */
object Pipeline {

  final case class PreparedPair(
      inst: Instance,
      keyOf: Map[Long, (Int, String)],
      gold: Gold.GoldStandard,
      stats: PairStats,
  )

  /** What stage 1 produced for one pair and where its time went: the
    * tuple and match counts, the calibration's labeled pairs and true labels
    * among them, and wall seconds of each phase of [[prepare]] in run order
    * (the tuple collect, gold derivation, the candidate collect, calibration,
    * the sort).
    */
  final case class PairStats(
      t1: Int,
      t2: Int,
      nMatches: Int,
      labeled: Int = 0,
      trueLabels: Int = 0,
      tuplesS: Double = 0.0,
      goldS: Double = 0.0,
      candidatesS: Double = 0.0,
      calibrateS: Double = 0.0,
      sortS: Double = 0.0,
  ) {
    def phases: String =
      f"stage 1: tuples $tuplesS%.3fs, gold $goldS%.3fs, candidates $candidatesS%.3fs, " +
        f"calibrate $calibrateS%.3fs, sort $sortS%.3fs; $nMatches candidate matches, " +
        f"$labeled labeled ($trueLabels true)"
  }

  object PairStats {
    /** Field-wise mean; counts use integer division. */
    def mean(ss: Seq[PairStats]): PairStats = {
      val n = ss.size
      PairStats(ss.map(_.t1).sum / n, ss.map(_.t2).sum / n, ss.map(_.nMatches).sum / n,
        ss.map(_.labeled).sum / n, ss.map(_.trueLabels).sum / n,
        ss.map(_.tuplesS).sum / n, ss.map(_.goldS).sum / n, ss.map(_.candidatesS).sum / n,
        ss.map(_.calibrateS).sum / n, ss.map(_.sortS).sum / n)
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

  /** Orders matches by (left, right): the edge order stage 2 sees. */
  private val byPair: Ordering[TupleMatch] = (a, b) => {
    val c = java.lang.Long.compare(a.left, b.left)
    if (c != 0) c else java.lang.Long.compare(a.right, b.right)
  }

  /** Assigns a deterministic 0-based `cid` by sorting on the key columns,
    * then on every other column, so only identical rows tie.
    */
  def withCid(canon: DataFrame, matchAttrs: Seq[String]): DataFrame = {
    val order = (matchAttrs :+ "I") ++ canon.columns.filterNot((matchAttrs :+ "I").contains)
    canon.withColumn("cid", row_number().over(Window.orderBy(order.map(col): _*)).cast("long") - 1)
  }

  /** Full stage-1 preparation of one comparable query pair, under the
    * default priors and calibration. Candidates are unique per (lid, rid):
    * the similarity join emits distinct pairs, so the matches need only be
    * sorted.
    */
  def prepare(
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      simFloor: Double = 0.0,
  ): PreparedPair = {
    val matchAttrs = attrs.map(_.name)
    val lc = withCid(leftCanon, matchAttrs).cache()
    val rc = withCid(rightCanon, matchAttrs).cache()
    val sc = lc.sparkSession.sparkContext

    /** One side's tuples in cid order (tuple id = cid + offset) and their
      * uids, indexed by cid.
      */
    def collectSide(df: DataFrame, side: Int, offset: Long): (Vector[CTuple], Array[String]) = {
      // Any column beyond (cid, matchAttrs, I, uid) is an extra provenance
      // attribute carried for stage-3 summarization.
      val extras = df.columns.toSeq.diff(matchAttrs ++ Seq("cid", "I", "uid"))
      val cols = col("cid") +:
        (matchAttrs ++ extras).map(c => coalesce(col(c).cast("string"), lit(""))) :+
        col("I").cast("double") :+ col("uid").cast("string")
      val iIdx = 1 + matchAttrs.size + extras.size
      val rows = df.select(cols: _*).collect().sortBy(_.getLong(0))
      val tuples = rows.toVector.map { r =>
        val key = (1 to matchAttrs.size).map(r.getString)
        val extraVals = extras.indices.map(i => r.getString(1 + matchAttrs.size + i))
        CTuple(r.getLong(0) + offset, side, key, r.getDouble(iIdx),
          matchAttrs.zip(key).toMap ++ extras.zip(extraVals).toMap)
      }
      (tuples, rows.map(_.getString(iIdx + 1)))
    }
    val (((t1, lUid), (t2, rUid)), tuplesS) = phase(sc, "tuples") {
      val l = collectSide(lc, 1, 0L)
      (l, collectSide(rc, 2, l._1.size.toLong))
    }
    val offset = t1.size.toLong
    val keyOf = (t1 ++ t2).map(t => t.id -> (t.side, t.key.mkString("|"))).toMap

    def entries(ts: Vector[CTuple], uids: Array[String]) =
      ts.zip(uids).map { case (t, u) => Gold.Entry(keyOf(t.id)._2, t.impact, u) }
    val (gold, goldS) = phase(sc, "gold")(Gold.derive(entries(t1, lUid), entries(t2, rUid), phi))

    // simFloor models the blocking step of practical linkage systems: pairs
    // below the floor never become candidates (zero-overlap pairs already
    // don't). 0.0 keeps every token-sharing pair.
    val simsAll = Similarity.candidatePairs(lc, rc, attrs)
    val sims = if (simFloor > 0.0) simsAll.filter(col("sim") >= simFloor) else simsAll
    val (rows, candidatesS) = phase(sc, "candidates")(sims.select("lid", "rid", "sim").collect())
    lc.unpersist()
    rc.unpersist()

    val lid = rows.map(_.getLong(0))
    val rid = rows.map(_.getLong(1))
    // Both uids equal and non-null: the pair is a gold evidence pair.
    def isTrue(l: Long, r: Long): Boolean = {
      val u = lUid(l.toInt)
      u != null && u == rUid(r.toInt)
    }
    val (cal, calibrateS) = phase(sc, "calibrate")(
      Calibration.probabilities(lid, rid, rows.map(_.getDouble(2)), isTrue))
    val (matches, sortS) = phase(sc, "sort")(
      rows.indices.map(i => TupleMatch(lid(i), rid(i) + offset, cal.p(i))).sorted(byPair).toVector)

    val inst = Instance(t1, t2, matches, phi)
    PreparedPair(inst, keyOf, gold, PairStats(t1.size, t2.size, matches.size, cal.labeled, cal.trues,
      tuplesS, goldS, candidatesS, calibrateS, sortS))
  }
}

package repro.core

import org.apache.spark.sql.DataFrame

/** Similarity-to-probability calibration (Section 5.1.2).
  *
  * Two-step method from the paper: (1) divide candidate pairs into `Buckets`
  * contiguous buckets over their similarity value; (2) set each bucket's
  * probability to the ratio of true matches among a *labeled sample* of the
  * bucket (labels come from the gold evidence mapping, as in the paper's
  * setup). We Laplace-smooth with the bucket midpoint so empty buckets fall
  * back to the raw similarity, and clamp into (0, 1) so log-space scoring is
  * finite.
  *
  * The pass runs on the driver over the collected candidates. Whether a pair
  * is labeled is a hash of (lid, rid, `Seed`), so the sample, and with it
  * every probability, depends only on the pairs themselves: not on their
  * order, partitioning or caching.
  */
object Calibration {

  val Buckets = 50
  val DefaultLabelFraction = 0.5
  val Seed = 42L
  val Eps = 0.002

  /** Per-pair probabilities, in input order, and the label sample's size. */
  final case class Calibrated(p: Array[Double], labeled: Int, trues: Int)

  /** SplitMix64's finalizer: a bijection on 64 bits with full avalanche. */
  private def mix(x: Long): Long = {
    var z = x
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  private val Gamma = 0x9e3779b97f4a7c15L

  /** Whether pair (lid, rid) is in the label sample: a uniform draw in
    * [0, 1) keyed by (lid, rid, `Seed`) falls below `labelFraction`.
    */
  private def labeled(lid: Long, rid: Long, labelFraction: Double): Boolean = {
    val h = mix(mix(mix(Seed + Gamma) + lid + Gamma) + rid + Gamma)
    (h >>> 11) / (1L << 53).toDouble < labelFraction
  }

  /** Calibrates candidate pairs: pair i is (lid(i), rid(i)) with similarity
    * sim(i), and `isTrue` reveals a labeled pair's gold label.
    */
  def probabilities(
      lid: Array[Long],
      rid: Array[Long],
      sim: Array[Double],
      isTrue: (Long, Long) => Boolean,
      labelFraction: Double = DefaultLabelFraction,
  ): Calibrated = {
    val bucket = sim.map(s => math.min(Buckets - 1, math.floor(s * Buckets).toInt))
    val trues = new Array[Int](Buckets)
    val cnt = new Array[Int](Buckets)
    for (i <- sim.indices if labeled(lid(i), rid(i), labelFraction)) {
      cnt(bucket(i)) += 1
      if (isTrue(lid(i), rid(i))) trues(bucket(i)) += 1
    }
    // (trues + mid) / (cnt + 1) is the midpoint itself in an unlabeled bucket.
    val bucketP = Array.tabulate(Buckets) { b =>
      val mid = (b + 0.5) / Buckets
      math.min(1.0 - Eps, math.max(Eps, (trues(b) + mid) / (cnt(b) + 1.0)))
    }
    Calibrated(bucket.map(bucketP), cnt.sum, trues.sum)
  }

  /** [[probabilities]] at the default label fraction, over DataFrames:
    * collects both inputs and returns the pairs with their probability as a
    * local relation.
    *
    * @param pairs         DataFrame(lid, rid, sim)
    * @param goldEvidence  DataFrame(lid, rid) of true matches (labels)
    * @return DataFrame(lid, rid, sim, p)
    */
  def calibrate(pairs: DataFrame, goldEvidence: DataFrame): DataFrame = {
    val rows = pairs.select("lid", "rid", "sim").collect()
    val gold = goldEvidence.select("lid", "rid").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val lid = rows.map(_.getLong(0))
    val rid = rows.map(_.getLong(1))
    val sim = rows.map(_.getDouble(2))
    val p = probabilities(lid, rid, sim, (l, r) => gold((l, r))).p
    val spark = pairs.sparkSession
    import spark.implicits._
    rows.indices.map(i => (lid(i), rid(i), sim(i), p(i))).toDF("lid", "rid", "sim", "p")
  }
}

package repro.core

import repro.SparkSpec

class CalibrationSpec extends SparkSpec {

  /** Calibrates (lid, rid, sim) triples against a set of true pairs. */
  private def calibrate(
      pairs: Seq[(Long, Long, Double)],
      gold: Set[(Long, Long)],
      labelFraction: Double,
  ): Calibration.Calibrated =
    Calibration.probabilities(pairs.map(_._1).toArray, pairs.map(_._2).toArray, pairs.map(_._3).toArray,
      (l, r) => gold((l, r)), labelFraction = labelFraction)

  test("bucket probability equals smoothed true ratio with full labels") {
    // 4 pairs in the same bucket (sim ∈ [0.80, 0.82)), 3 of them true.
    val pairs = Seq((0L, 0L, 0.80), (1L, 1L, 0.81), (2L, 2L, 0.805), (3L, 3L, 0.815))
    val c = calibrate(pairs, Set((0L, 0L), (1L, 1L), (2L, 2L)), labelFraction = 1.0)
    // bucket = floor(0.8*50) = 40, mid = 40.5/50 = 0.81 → p = (3 + .81)/5.
    val expected = (3.0 + 0.81) / 5.0
    c.p.foreach(p => assert(math.abs(p - expected) < 1e-9))
    assert((c.labeled, c.trues) == ((4, 3)))
  }

  test("unlabeled buckets fall back to the bucket midpoint") {
    val c = calibrate(Seq((0L, 0L, 0.30)), Set.empty, labelFraction = 0.0)
    assert(math.abs(c.p.head - (15.5 / 50.0)) < 1e-9)
    assert(c.labeled == 0)
  }

  test("probabilities are clamped into (0, 1)") {
    val c = calibrate(Seq((0L, 0L, 1.0), (1L, 1L, 0.0)), Set((0L, 0L)), labelFraction = 1.0)
    assert(c.p.forall(p => p > 0.0 && p < 1.0))
  }

  test("high-sim true matches calibrate high, low-sim false pairs low") {
    val truePairs = (0L until 30L).map(i => (i, i, 0.95))
    val falsePairs = (0L until 30L).map(i => (i, i + 100L, 0.1))
    val c = calibrate(truePairs ++ falsePairs, (0L until 30L).map(i => (i, i)).toSet, labelFraction = 1.0)
    assert(c.p.take(30).forall(_ > 0.9))
    assert(c.p.drop(30).forall(_ < 0.2))
  }

  test("labelFraction only affects the label sample, not the output pairs") {
    val pairs = (0L until 100L).map(i => (i, i, 0.5 + (i % 10) / 25.0))
    val c = calibrate(pairs, (0L until 50L).map(i => (i, i)).toSet, labelFraction = 0.3)
    assert(c.p.length == 100)
    assert(c.labeled > 0 && c.labeled < 100)
  }

  test("permuting the input leaves every pair's probability bit-identical") {
    val rnd = new scala.util.Random(11)
    val pairs = (0L until 2000L).map(i => (i / 40, i % 40, rnd.nextDouble()))
    val gold = pairs.filter(_._3 > 0.6).map(p => (p._1, p._2)).toSet
    val base = pairs.zip(calibrate(pairs, gold, labelFraction = 0.5).p).toMap
    val shuffled = rnd.shuffle(pairs)
    val again = shuffled.zip(calibrate(shuffled, gold, labelFraction = 0.5).p)
    again.foreach { case (pair, p) =>
      assert(java.lang.Double.doubleToRawLongBits(p) == java.lang.Double.doubleToRawLongBits(base(pair)), pair)
    }
  }

  test("the label sample's share is close to labelFraction") {
    val pairs = (0L until 20000L).map(i => (i / 150, i % 150, 0.5))
    val share = calibrate(pairs, Set.empty, labelFraction = 0.5).labeled / 20000.0
    assert(math.abs(share - 0.5) < 0.02, share)
  }

  test("the DataFrame adapter returns the driver function's probabilities") {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val pairs = (0L until 500L).map(i => (i / 20, i % 20 + 1000, rnd.nextDouble()))
    val gold = pairs.filter(_._3 > 0.5).map(p => (p._1, p._2)).toSet
    val expected = pairs.zip(calibrate(pairs, gold, labelFraction = 0.5).p)
      .map { case ((l, r, _), p) => (l, r) -> p }.toMap
    val out = Calibration.calibrate(pairs.toDF("lid", "rid", "sim").repartition(3), gold.toSeq.toDF("lid", "rid"))
      .collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(3)).toMap
    assert(out == expected)
  }
}

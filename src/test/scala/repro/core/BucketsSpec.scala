package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** [[Buckets]] against a `groupBy` reference: each key's entries in
  * ascending order, negative keys left out, empty groups kept empty.
  */
class BucketsSpec extends AnyFunSuite {

  private def check(nKeys: Int, key: Array[Int]): Unit = {
    val b = Buckets(nKeys, key)
    val byKey = key.indices.filter(key(_) >= 0).groupBy(key(_))
    assert(b.start.length == nKeys + 1)
    assert(b.start(0) == 0 && b.start(nKeys) == b.entry.length)
    for (g <- 0 until nKeys) {
      val got = b.entry.slice(b.start(g), b.start(g + 1)).toSeq
      assert(got == byKey.getOrElse(g, IndexedSeq.empty).sorted, s"key $g of ${key.toSeq}")
    }
  }

  test("random keys group like groupBy, in ascending entry order") {
    val rnd = new scala.util.Random(7)
    for (_ <- 0 until 500) {
      val nKeys = 1 + rnd.nextInt(20)
      // Keys from -2 to nKeys - 1: some negative, some keys without entries.
      val key = Array.fill(rnd.nextInt(60))(rnd.nextInt(nKeys + 2) - 2)
      check(nKeys, key)
    }
  }

  test("empty input, no keys, and only negative keys") {
    check(0, Array.emptyIntArray)
    check(5, Array.emptyIntArray)
    check(0, Array(-1, -3))
    check(3, Array(-1, -1, -2))
    val b = Buckets(3, Array(-1, -1, -2))
    assert(b.entry.isEmpty && b.start.toSeq == Seq(0, 0, 0, 0))
  }

  test("entries of one key keep their order among other keys") {
    val b = Buckets(3, Array(2, 0, 2, -1, 0, 2))
    assert(b.start.toSeq == Seq(0, 2, 2, 5))
    assert(b.entry.toSeq == Seq(1, 4, 0, 2, 5))
  }
}

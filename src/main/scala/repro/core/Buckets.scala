package repro.core

/** Entries `0 until key.length` grouped by key, in compressed-sparse-row
  * (CSR) form: the entries whose key is `g` are
  * `entry(start(g) until start(g + 1))`, in ascending order. An entry with a
  * negative key is left out. Every stage-1/stage-2 index (components,
  * incidences, postings, coarse-graph rows) is one of these.
  */
final class Buckets private (val start: Array[Int], val entry: Array[Int])

object Buckets {

  /** One stable counting sort of `key`, whose keys are below `nKeys`. */
  def apply(nKeys: Int, key: Array[Int]): Buckets = {
    val start = new Array[Int](nKeys + 1)
    var i = 0
    while (i < key.length) { if (key(i) >= 0) start(key(i) + 1) += 1; i += 1 }
    var g = 0
    while (g < nKeys) { start(g + 1) += start(g); g += 1 }
    val entry = new Array[Int](start(nKeys))
    val next = java.util.Arrays.copyOf(start, nKeys)
    i = 0
    while (i < key.length) {
      val g = key(i)
      if (g >= 0) { entry(next(g)) = i; next(g) += 1 }
      i += 1
    }
    new Buckets(start, entry)
  }
}

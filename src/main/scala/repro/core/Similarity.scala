package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Initial tuple-match candidate generation (Section 5.1.2) as a single-node
  * inverted-index set-similarity join (Vernica, Carey & Li, SIGMOD 2010)
  * over rows the driver has collected.
  *
  * Spark tokenizes: each side is collected once through [[features]], which
  * carries every text matching attribute's distinct-token array and every
  * numeric one as a double. The driver then indexes the right side's tokens
  * and probes it with the left side's, so only pairs sharing at least one
  * token are scored (pairs with zero token overlap have Jaccard 0 and are
  * not matches). The index holds the union of the blocking attributes'
  * tokens, so a token may match across attributes.
  *
  * Scoring follows the paper: token-wise Jaccard `|A∩B| / (|A|+|B|−|A∩B|)`
  * for string attributes, `1/(1+(a−b)²)` for numeric attributes, averaged
  * over the matching attributes. A null value, text or numeric, scores 0
  * against anything, and a null text value blocks nothing.
  */
object Similarity {

  /** A matching attribute: `numeric` switches the similarity measure;
    * `blocking = false` keeps a (text) attribute out of the candidate
    * inverted index — low-cardinality attributes like gender would otherwise
    * make every value-sharing pair a candidate — while still contributing to
    * the similarity score.
    */
  final case class KeyAttr(name: String, numeric: Boolean = false, blocking: Boolean = true)

  /** A text value's distinct tokens: Spark's space-only `trim`, then `split`
    * on whitespace keeping empty tokens, so `""` has the one token `""`.
    */
  private def tokensOf(c: String): Column =
    array_distinct(split(lower(trim(col(c))), "\\s+"))

  /** The values [[join]] reads, one column per attribute in `attrs` order:
    * the distinct-token array of a text attribute, a numeric one as a double.
    */
  def features(attrs: Seq[KeyAttr]): Seq[Column] =
    attrs.map(a => if (a.numeric) col(a.name).cast("double") else tokensOf(a.name))

  /** Candidate pairs by row index, in (lid, rid) order, with their
    * similarity; `generated` counts the pairs before the floor.
    */
  final case class Candidates(lid: Array[Int], rid: Array[Int], sim: Array[Double], generated: Int)

  /** The similarity join of two collected sides whose rows start with
    * [[features]]. Pairs with similarity below a positive `floor` are
    * generated and dropped.
    */
  def join(left: IndexedSeq[Row], right: IndexedSeq[Row], attrs: Seq[KeyAttr], floor: Double = 0.0): Candidates = {
    require(attrs.exists(a => !a.numeric && a.blocking),
      "need at least one blocking text attribute for the inverted index")
    val dict = mutable.HashMap.empty[String, Int]
    // Per tuple, its sorted token ids; a null value has none.
    def tokenIds(rows: IndexedSeq[Row], c: Int): Array[Array[Int]] =
      rows.iterator.map { r =>
        if (r.isNullAt(c)) Array.emptyIntArray
        else r.getSeq[String](c).iterator.map(t => dict.getOrElseUpdate(t, dict.size)).toArray.sorted
      }.toArray
    def numbers(rows: IndexedSeq[Row], c: Int): Array[java.lang.Double] =
      rows.iterator.map(r => if (r.isNullAt(c)) null else java.lang.Double.valueOf(r.getDouble(c))).toArray

    val text = attrs.indices.filterNot(attrs(_).numeric)
    val lTok = text.map(k => k -> tokenIds(left, k)).toMap
    val rTok = text.map(k => k -> tokenIds(right, k)).toMap
    val term: Array[(Int, Int) => Double] = attrs.indices.toArray.map { k =>
      if (attrs(k).numeric) {
        val (l, r) = (numbers(left, k), numbers(right, k))
        (i: Int, j: Int) =>
          if (l(i) == null || r(j) == null) 0.0
          else { val d = l(i) - r(j); 1.0 / (1.0 + d * d) }
      } else {
        val (l, r) = (lTok(k), rTok(k))
        (i: Int, j: Int) => {
          val inter = intersection(l(i), r(j))
          val uni = l(i).length + r(j).length - inter
          if (uni > 0) inter.toDouble / uni.toDouble else 0.0
        }
      }
    }
    // Summed left to right, then divided by the attribute count: the
    // floating-point order the recorded scores and stage-1 digests pin.
    val nAttrs = attrs.size.toDouble
    def sim(i: Int, j: Int): Double = {
      var s = term(0)(i, j)
      var k = 1
      while (k < term.length) { s += term(k)(i, j); k += 1 }
      s / nAttrs
    }

    // Postings of the right side: one (token, row) occurrence per blocking
    // attribute and token, bucketed by token.
    val blocking = text.filter(attrs(_).blocking)
    val (occTok, occRow) = (Array.newBuilder[Int], Array.newBuilder[Int])
    for (k <- blocking; j <- right.indices; t <- rTok(k)(j)) { occTok += t; occRow += j }
    val byTok = Buckets(dict.size, occTok.result())
    val rowOf = occRow.result()
    val posting = byTok.entry.map(rowOf(_))

    // stamp(j) == i once pair (i, j) is found, so each pair is emitted once.
    val stamp = Array.fill(right.size)(-1)
    val found = new Array[Int](right.size)
    val (lid, rid, sims) = (Array.newBuilder[Int], Array.newBuilder[Int], Array.newBuilder[Double])
    var generated = 0
    for (i <- left.indices) {
      var n = 0
      for (k <- blocking; t <- lTok(k)(i); p <- byTok.start(t) until byTok.start(t + 1)) {
        val j = posting(p)
        if (stamp(j) != i) { stamp(j) = i; found(n) = j; n += 1 }
      }
      java.util.Arrays.sort(found, 0, n)
      generated += n
      for (x <- 0 until n) {
        val s = sim(i, found(x))
        if (!(floor > 0.0) || s >= floor) { lid += i; rid += found(x); sims += s }
      }
    }
    Candidates(lid.result(), rid.result(), sims.result(), generated)
  }

  /** |a ∩ b| of two sorted arrays of distinct ids. */
  private def intersection(a: Array[Int], b: Array[Int]): Int = {
    var (i, j, n) = (0, 0, 0)
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { n += 1; i += 1; j += 1 }
    }
    n
  }

  /** [[join]] over two relations with a `cid` column: collects both and
    * returns the pairs as a local relation.
    *
    * @param left  canonical relation with a `cid` column
    * @param right canonical relation with a `cid` column
    * @param attrs matching attributes present in both inputs
    * @return DataFrame(lid, rid, sim) — one row per candidate pair
    */
  def candidatePairs(left: DataFrame, right: DataFrame, attrs: Seq[KeyAttr]): DataFrame = {
    def rows(df: DataFrame) = df.select(features(attrs) :+ col("cid").cast("long"): _*).collect().toIndexedSeq
    val (l, r) = (rows(left), rows(right))
    val c = join(l, r, attrs)
    def cid(row: Row) = row.getLong(attrs.size)
    val spark = left.sparkSession
    import spark.implicits._
    c.sim.indices.map(x => (cid(l(c.lid(x))), cid(r(c.rid(x))), c.sim(x))).toDF("lid", "rid", "sim")
  }
}

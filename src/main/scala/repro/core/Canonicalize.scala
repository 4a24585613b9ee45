package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Canonicalization (Def. 3.1): `T = π_{A,I}( GroupBy_A SUM(I) (P) )`.
  *
  * Tuples of the provenance relation that agree on the matching attributes
  * are indistinguishable with respect to the disagreement, so they are
  * consolidated and their impacts summed. Queries with AVG/MAX/MIN (strict
  * one-to-one mapping) are exempt.
  *
  * Output schema: the matching attributes (as strings), `I` (double), and
  * `uid` — the hidden true-entity identifier threaded through the synthetic
  * generators so gold standards can be derived (see `repro.eval.Gold`).
  * Real-world deployments would not have `uid`; nothing in the pipeline
  * reads it except gold derivation.
  *
  * Consolidation keeps the least non-null `uid` and extra attribute of each
  * key, so the output depends only on the provenance rows, not on their
  * order or partitioning.
  *
  * Every query, strict or not, is canonicalized over `coalesce(1)`, in one
  * task and with no exchange: every canonical relation is collected to the
  * driver whole, a shuffle would only add a partial-aggregate stage that
  * adaptive execution runs as a Spark job of its own, and the one partition
  * lets the collect sort it into cid order with no range exchange. The
  * operators after the provenance relation's last exchange run in that task
  * too, a cost that grows with the relation; the ones here hold a few
  * thousand rows.
  */
object Canonicalize {

  /** @param prov       provenance relation with an `I` column
    * @param matchAttrs the matching attribute columns (Def. 2.1)
    * @param strict     true for AVG/MAX/MIN queries (no consolidation)
    * @param extraAttrs non-matching provenance attributes carried along
    *                   (via `min()` under consolidation) for stage-3
    *                   summarization — e.g. the Degree attribute behind the
    *                   paper's `Degree='Associate'` pattern
    */
  def canonical(
      prov: DataFrame,
      matchAttrs: Seq[String],
      strict: Boolean = false,
      extraAttrs: Seq[String] = Nil,
  ): DataFrame = {
    val hasUid = prov.columns.contains("uid")
    val keyed = matchAttrs.foldLeft(prov.coalesce(1))((df, a) => df.withColumn(a, col(a).cast("string")))
    val base =
      if (strict) {
        val cols = matchAttrs.map(col) :+ col("I").cast("double").as("I")
        keyed.select(cols ++ extraAttrs.map(a => col(a).cast("string").as(a)) ++
          (if (hasUid) Seq(col("uid").cast("string")) else Nil): _*)
      } else {
        val aggs = (sum(col("I")).cast("double").as("I") +:
          extraAttrs.map(a => min(col(a)).cast("string").as(a))) ++
          (if (hasUid) Seq(min(col("uid")).cast("string").as("uid")) else Nil)
        keyed.groupBy(matchAttrs.map(col): _*).agg(aggs.head, aggs.tail: _*)
      }
    if (hasUid) base else base.withColumn("uid", lit(null).cast("string"))
  }
}

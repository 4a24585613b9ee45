package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Provenance relations (Def. 2.3).
  *
  * For a query `Q = π_o σ_c(X)` the caller supplies `σ_c(X)` as a DataFrame
  * (X may be any join/union/subquery — Spark composes it) and the output
  * shape `o`. The provenance relation appends the impact column `I`: 1 for
  * non-aggregate and COUNT queries, the aggregated attribute's value for
  * SUM/AVG/MAX/MIN.
  */
object Provenance {

  /** The projection/aggregate `o` of the query.
    *
    * @param column the aggregated attribute of SUM/AVG/MAX/MIN, none for a
    *               plain projection or COUNT
    * @param strict AVG/MAX/MIN require a strict one-to-one mapping and are
    *               exempt from canonical consolidation (Section 3.1)
    */
  sealed abstract class Output(val column: Option[String], val strict: Boolean)
  object Output {
    /** Plain projection — each result tuple contributes 1. */
    case object NonAggregate          extends Output(None, strict = false)
    case object Count                 extends Output(None, strict = false)
    final case class Sum(col: String) extends Output(Some(col), strict = false)
    final case class Avg(col: String) extends Output(Some(col), strict = true)
    final case class Max(col: String) extends Output(Some(col), strict = true)
    final case class Min(col: String) extends Output(Some(col), strict = true)
  }

  /** Derives P(A…, I) from the filtered input σ_c(X). */
  def relation(filtered: DataFrame, output: Output): DataFrame =
    filtered.withColumn("I", output.column.fold(lit(1.0))(col(_).cast("double")))
}

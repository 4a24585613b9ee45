package repro.core

/** Stage 3: explanation summarization (Section 3.3).
  *
  * Data X-Ray substitute: explanation tuples are marked as targets and we
  * greedily pick attribute-value patterns that cover many targets while
  * covering few non-targets (a simplified form of Data X-Ray's cost model,
  * which trades off conciseness against false positives). Remaining
  * uncovered targets are reported individually, so the summarized size
  * |E_S| = #patterns + #uncovered-targets, comparable to Fig. 4's
  * |E| → |E_S| columns.
  */
object Summarize {

  /** A pattern `attr = value` with its coverage counts. */
  final case class Pattern(attr: String, value: String, targetsCovered: Int, othersCovered: Int) {
    override def toString: String = s"$attr='$value' (+$targetsCovered/-$othersCovered)"
  }

  final case class Summary(patterns: Seq[Pattern], uncovered: Int) {
    /** |E_S|: the summarized explanation size. */
    def size: Int = patterns.size + uncovered
  }

  /** Penalty per covered non-target (Data X-Ray's accuracy/conciseness
    * trade-off).
    */
  private val FalsePosCost = 2.0

  /** @param targets attribute maps of explanation tuples
    * @param others  attribute maps of non-explanation tuples
    */
  def summarize(
      targets: Seq[Map[String, String]],
      others: Seq[Map[String, String]],
      maxPatterns: Int = 64,
  ): Summary = {
    // How many non-targets each (attr, value) pair covers: a map holds at
    // most one value per attribute, so this counts covering maps.
    val othersCovered = scala.collection.mutable.HashMap.empty[(String, String), Int]
    others.foreach(_.foreach { kv => othersCovered(kv) = othersCovered.getOrElse(kv, 0) + 1 })
    var remaining = targets.zipWithIndex.toSet
    val chosen = Seq.newBuilder[Pattern]
    var n = 0
    var go = true
    while (go && n < maxPatterns) {
      val counts = scala.collection.mutable.Map.empty[(String, String), Int]
      remaining.foreach { case (t, _) =>
        t.foreach { kv => counts(kv) = counts.getOrElse(kv, 0) + 1 }
      }
      val best = counts.iterator.filter(_._2 >= 2).map { case (av, cov) =>
        (av, cov, cov - FalsePosCost * othersCovered.getOrElse(av, 0))
      }.maxByOption(c => (c._3, c._2, c._1))
      best match {
        case Some(((a, v), cov, score)) if score > 1.0 =>
          chosen += Pattern(a, v, cov, othersCovered.getOrElse((a, v), 0))
          remaining = remaining.filterNot { case (t, _) => t.get(a).contains(v) }
          n += 1
        case _ => go = false
      }
    }
    Summary(chosen.result(), remaining.size)
  }
}

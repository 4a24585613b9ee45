package repro.baselines

import repro.core.Model._

/** EXACTCOVER baseline (Section 5.1.3): the Exact Cover integer program
  * adapted into an optimization problem. Tuples of T1 are elements, tuples
  * of T2 are sets; an element is covered by a set when an initial match
  * exists between them. We pick a collection of sets maximizing the total
  * number of covered sets and elements, subject to each element being
  * covered by at most one selected set (the packing relaxation of exact
  * cover), by greedy packing: repeatedly select the set with the most
  * elements, among the sets none of whose elements is covered yet, until
  * no such set is left. The baseline ignores tuple impacts and match
  * probabilities by design, which is why the paper reports it performing
  * badly everywhere.
  */
case object ExactCover extends Algorithm {
  val name = "EXACTCOVER"

  def derive(inst: Instance): ExplanationSet = {
    val coverOf: Map[Long, Set[Long]] = inst.matches
      .groupBy(_.right).view.mapValues(_.map(_.left).toSet).toMap

    val covered = scala.collection.mutable.Set.empty[Long]
    val selected = scala.collection.mutable.ArrayBuffer.empty[Long]
    // Greedy: repeatedly add the set with the most not-yet-covered elements,
    // provided none of its elements is already covered (exact-cover packing).
    var progress = true
    val remaining = scala.collection.mutable.Set.from(coverOf.keys)
    while (progress) {
      val pick = remaining.iterator
        .filter(s => coverOf(s).forall(e => !covered.contains(e)))
        .maxByOption(s => (coverOf(s).size, -s))
      pick match {
        case Some(s) =>
          selected += s
          covered ++= coverOf(s)
          remaining -= s
        case None => progress = false
      }
    }
    val ev = selected.iterator.flatMap { s =>
      coverOf(s).iterator.map(e => (e, s))
    }.toSet
    EvidenceToExplanations.decode(inst, ev)
  }
}

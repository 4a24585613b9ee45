package repro.core

import repro.core.Model._

/** Test oracle: exhaustive search over all valid evidence mappings, scoring
  * candidate explanation sets with [[Scoring]] (which independently enforces
  * completeness). Exponential in the number of matches — test instances keep
  * |M| small.
  */
object SemanticBruteForce {

  /** Scores an explanation set, returning −∞ when incomplete. */
  def scoreOrNegInf(inst: Instance, e: ExplanationSet): Double =
    Scoring.completenessViolation(inst, e) match {
      case None    => Scoring.logProb(inst, e)
      case Some(_) => Double.NegativeInfinity
    }

  def solve(inst: Instance): (ExplanationSet, Double) = {
    val n = inst.matches.size
    require(n <= 20, s"too many matches for brute force: $n")
    var best: (ExplanationSet, Double) = (ExplanationSet(Set.empty, Map.empty, Set.empty), Double.NegativeInfinity)
    val hubSide = if (inst.phi == Phi.MoreGeneral) 1 else 2

    for (mask <- 0 until (1 << n)) {
      val sel = (0 until n).filter(i => (mask & (1 << i)) != 0).map(inst.matches)
      val leftDeg = sel.groupBy(_.left).view.mapValues(_.size)
      val rightDeg = sel.groupBy(_.right).view.mapValues(_.size)
      val valid =
        (!inst.phi.capsLeft || leftDeg.forall(_._2 <= 1)) &&
          (!inst.phi.capsRight || rightDeg.forall(_._2 <= 1))
      if (valid) {
        val evidence = sel.map(m => (m.left, m.right)).toSet
        val matched = evidence.flatMap(e => Seq(e._1, e._2))
        val delta = Set.newBuilder[Long]
        val values = Map.newBuilder[Long, ValueChange]
        // Unmatched tuples: delete vs refine-to-zero, whichever scores higher.
        for (t <- inst.t1 ++ inst.t2 if !matched.contains(t.id)) {
          val p = inst.params
          val zeroCost = if (t.impact == 0.0) p.costKeep else p.costChange
          if (p.costDelete >= zeroCost) delta += t.id
          else if (t.impact != 0.0) values += t.id -> ValueChange(t.id, t.impact, 0.0)
        }
        // Stars: unbalanced components get a hub-impact change.
        val hubOf: ((Long, Long)) => Long = if (hubSide == 1) _._1 else _._2
        val leafOf: ((Long, Long)) => Long = if (hubSide == 1) _._2 else _._1
        evidence.groupBy(hubOf).foreach { case (hub, es) =>
          val leafSum = es.toSeq.map(e => inst.tupleById(leafOf(e)).impact).sum
          val hi = inst.tupleById(hub).impact
          if (math.abs(leafSum - hi) > 1e-9)
            values += hub -> ValueChange(hub, hi, leafSum)
        }
        val e = ExplanationSet(delta.result(), values.result(), evidence)
        val s = scoreOrNegInf(inst, e)
        if (s > best._2) best = (e, s)
      }
    }
    best
  }
}

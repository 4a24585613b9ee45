package repro.baselines

import repro.core.Model._
import scala.collection.mutable

/** GREEDY baseline (Section 5.1.3): uses EXPLAIN3D's objective but builds
  * the evidence mapping greedily — matches are visited in decreasing
  * probability order and included when they respect the valid-mapping
  * cardinality and improve the objective value. Susceptible to local maxima
  * by construction.
  */
case object Greedy extends Algorithm {
  val name = "GREEDY"

  def derive(inst: Instance): ExplanationSet = {
    val p = inst.params
    val leafMatched = mutable.Set.empty[Long]
    val hubCount = mutable.Map.empty[Long, Int].withDefaultValue(0)
    val hubSum = mutable.Map.empty[Long, Double].withDefaultValue(0.0)
    def hubTerm(h: CTuple): Double = p.starCost(hubCount(h.id), hubSum(h.id), h.impact)

    val ev = mutable.Set.empty[(Long, Long)]
    for (m <- inst.matches.sortBy(mm => (-mm.p, mm.left, mm.right))) {
      val (hubId, leafId) = inst.phi.hubAndLeaf(m.left, m.right)
      val hub = inst.tupleById(hubId)
      val leaf = inst.tupleById(leafId)
      val leafFree = !leafMatched.contains(leafId)
      val hubFree = inst.phi != Phi.Equiv || hubCount(hubId) == 0
      if (leafFree && hubFree) {
        val before = hubTerm(hub)
        hubCount(hubId) += 1
        hubSum(hubId) += leaf.impact
        val after = hubTerm(hub)
        val delta = (math.log(m.p) - math.log(1 - m.p)) + (p.costKeep - p.unmatchedCost(leaf.impact)) +
          (after - before)
        if (delta > 0) {
          leafMatched += leafId
          ev += ((m.left, m.right))
        } else {
          hubCount(hubId) -= 1
          hubSum(hubId) -= leaf.impact
        }
      }
    }
    EvidenceToExplanations.decode(inst, ev.toSet)
  }
}

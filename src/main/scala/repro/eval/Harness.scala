package repro.eval

import repro.baselines.{Algorithm, SolverBacked}
import repro.core.Scoring
import repro.core.Model.SolveStats
import repro.core.Pipeline.PreparedPair
import repro.eval.Metrics.PRF

/** End-to-end evaluation harness: runs an algorithm on a prepared pair and
  * scores explanations and evidence against the gold standard
  * (Section 5.1.4 metrics). Timing is the algorithm's solve time; the shared
  * match-generation time (98% of total for the mapping-based methods, per
  * the paper) is measured once per pair during preparation.
  */
object Harness {

  final case class AlgoResult(
      algorithm: String,
      pair: String,
      explanation: PRF,
      evidence: PRF,
      solveMillis: Long,
      proved: Boolean = true,
      stats: Option[SolveStats] = None,
      objective: Option[Double] = None,
  ) {
    /** A solver-backed row shows its objective (the solution's log
      * probability) and solve stats; a capped or timed-out solve is marked
      * UNPROVED at the end.
      */
    def row: String =
      f"$pair%-12s $algorithm%-22s  expl[$explanation]  evid[$evidence]  ${solveMillis}ms" +
        objective.fold("")(o => f"  obj=$o%.4f") + stats.fold("")(s => s"  [$s]") +
        (if (proved) "" else "  UNPROVED")
  }

  /** Runs `algo` on the pair. Only a solver-backed algorithm can be
    * unproved: its solve may stop at a node or time cap. A solver-backed
    * result must be complete (Def. 3.4), checked outside the timed span;
    * baselines are exempt because their decode does not enforce the
    * valid-mapping caps.
    */
  def run(algo: Algorithm, pair: PreparedPair, pairName: String): AlgoResult = {
    val t0 = System.nanoTime()
    val (e, proved, stats, objective) = algo match {
      case s: SolverBacked =>
        val sol = s.solve(pair.inst)
        (sol.explanations, sol.proved, Some(sol.stats), Some(sol.logProb))
      case _ => (algo.derive(pair.inst), true, None, None)
    }
    val ms = (System.nanoTime() - t0) / 1000000
    if (algo.isInstanceOf[SolverBacked])
      Scoring.completenessViolation(pair.inst, e).foreach { v =>
        throw new IllegalStateException(s"${algo.name} on $pairName returned an incomplete explanation: $v")
      }
    val expl = Metrics.prf(Metrics.explanationItems(e, pair.keyOf), pair.gold.explanations)
    val evid = Metrics.prf(Metrics.evidenceItems(e, pair.keyOf), pair.gold.evidence)
    AlgoResult(algo.name, pairName, expl, evid, ms, proved, stats, objective)
  }

  /** Arithmetic mean of results across pairs (used for the IMDb templates,
    * which the paper averages over 10 instantiations).
    */
  def average(name: String, rs: Seq[AlgoResult]): AlgoResult = {
    def avgPrf(f: AlgoResult => PRF): PRF = PRF(
      rs.map(f(_).precision).sum / rs.size,
      rs.map(f(_).recall).sum / rs.size,
      rs.map(f(_).f1).sum / rs.size,
    )
    AlgoResult(rs.head.algorithm, name, avgPrf(_.explanation), avgPrf(_.evidence),
      rs.map(_.solveMillis).sum / rs.size, rs.forall(_.proved),
      if (rs.forall(_.stats.nonEmpty)) Some(SolveStats.mean(rs.flatMap(_.stats))) else None,
      if (rs.forall(_.objective.nonEmpty)) Some(rs.flatMap(_.objective).sum / rs.size) else None)
  }
}

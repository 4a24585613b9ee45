package repro.debug

import repro.SparkSpec
import repro.baselines._
import repro.core.{ExplainSolver, Pipeline, SemanticBruteForce}
import repro.core.Model.Phi
import repro.core.Similarity.KeyAttr
import repro.data.AcademicData
import repro.eval.Experiments

/** Diagnostic: the exact solver must never be beaten on the OBJECTIVE by
  * greedy; if gold metrics disagree, the divergence is model-vs-gold, not a
  * solver bug.
  */
class DebugAcademicSpec extends SparkSpec {

  test("solver objective dominates greedy's on both academic pairs") {
    for (cfg <- Seq(AcademicData.UMass, AcademicData.OSU)) {
      val (l, r) = Experiments.academicPair(spark, cfg)
      val pair = Pipeline.prepare(l, r, Seq(KeyAttr("name")), Phi.LessGeneral,
        simFloor = Experiments.AcademicSimFloor)
      val sol = ExplainSolver.solve(pair.inst)
      val greedyE = Greedy.derive(pair.inst)
      val greedyScore = SemanticBruteForce.scoreOrNegInf(pair.inst, greedyE)
      info(s"${cfg.univName}: solver=${sol.logProb} proved=${sol.proved} greedy=$greedyScore")
      val probs = pair.inst.matches.map(_.p).groupBy(p => (p * 20).toInt / 20.0)
        .view.mapValues(_.size).toMap.toSeq.sortBy(_._1)
      info(s"p histogram: $probs")
      assert(sol.logProb >= greedyScore - 1e-9,
        s"${cfg.univName}: greedy beat the exact solver on the objective!")
    }
  }
}

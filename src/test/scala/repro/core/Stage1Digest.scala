package repro.core

import java.security.MessageDigest
import repro.core.Model.{CTuple, TupleMatch}
import repro.eval.Gold.GoldStandard

/** Exact digests of stage-1 output, for pinning it across changes. Doubles
  * enter by their bit patterns, so any change in a probability or impact
  * changes the digest. `sha` and `bits` are shared with
  * [[PinnedInstances]]'s stage-2 digests.
  */
object Stage1Digest {

  def sha(lines: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().map(b => f"${b & 0xff}%02x").mkString.take(16)
  }

  def bits(x: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(x))

  /** The match list in instance order: (left, right, p). */
  def matches(ms: Seq[TupleMatch]): String =
    sha(ms.iterator.map(m => s"${m.left},${m.right},${bits(m.p)}"))

  /** Tuples in instance order: id, side, key, impact and attributes. */
  def tuples(ts: Seq[CTuple]): String =
    sha(ts.iterator.map(t =>
      s"${t.id}|${t.side}|${t.key.mkString("\u0001")}|${bits(t.impact)}|" +
        t.attrs.toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString("\u0001")))

  /** Gold explanations and evidence, each sorted. */
  def gold(g: GoldStandard): String =
    sha(g.explanations.toSeq.map(_.toString).sorted.iterator ++ Iterator("--") ++
      g.evidence.toSeq.map(_.toString).sorted.iterator)
}

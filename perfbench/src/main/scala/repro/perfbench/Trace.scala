package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import scala.collection.mutable.ArrayBuffer

/** A timed call into one layer. `pair` and `pass` identify the request the
  * span belongs to; `counts` are the work counts recorded at the same call.
  */
final case class Span(id: Int, pass: Int, pair: String, name: String, startNs: Long, endNs: Long,
    counts: Map[String, Double]) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** One finished Spark task, attributed to the span whose thread ran its job. */
final case class TaskRecord(span: Int, durationMs: Long, shuffleWriteBytes: Long, failed: Boolean)

/** Records spans in memory around the benchmark's calls into each layer.
  * A disabled tracer runs the body and records nothing, so untraced passes
  * pay no tracing cost.
  */
final class Tracer(sc: Option[SparkContext]) {
  val enabled: Boolean = sc.isDefined
  private val spans = ArrayBuffer.empty[Span]
  var pass = 0
  var pair = ""

  def span[A](name: String)(body: => A): A = span(name, (_: A) => Map.empty[String, Double])(body)

  /** Times `body` as layer `name` and records `counts(result)` with it. */
  def span[A](name: String, counts: A => Map[String, Double])(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.size
      sc.foreach(_.setLocalProperty(Tracer.SpanKey, id.toString))
      val t0 = System.nanoTime()
      val result = try body finally sc.foreach(_.setLocalProperty(Tracer.SpanKey, null))
      val t1 = System.nanoTime()
      spans += Span(id, pass, pair, name, t0, t1, counts(result))
      result
    }

  /** Records counts taken outside any timed call (a zero-length span). */
  def note(name: String, counts: Map[String, Double]): Unit =
    if (enabled) { val t = System.nanoTime(); spans += Span(spans.size, pass, pair, name, t, t, counts) }

  def recorded: Seq[Span] = spans.toSeq
}

object Tracer {
  val SpanKey = "perfbench.span"
  val off = new Tracer(None)
}

/** Collects finished tasks per span. Jobs inherit the submitting thread's
  * local properties, so each stage carries the id of the span that ran it.
  * Events arrive on Spark's listener bus asynchronously; read `tasks` only
  * after `SparkContext.stop()`, which drains the bus.
  */
final class TaskListener extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val buf = ArrayBuffer.empty[TaskRecord]

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .foreach(id => stageSpan.put(e.stageInfo.stageId, id.toInt))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (stageSpan.containsKey(e.stageId)) {
      val m = Option(e.taskMetrics)
      buf.synchronized {
        buf += TaskRecord(
          stageSpan.get(e.stageId),
          e.taskInfo.duration,
          m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
          e.taskInfo.failed)
      }
    }

  def tasks: Seq[TaskRecord] = buf.synchronized(buf.toSeq)
}

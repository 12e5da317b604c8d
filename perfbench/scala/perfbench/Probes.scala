package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart,
  SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeLike, ShuffleExchangeLike}
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec,
  BroadcastNestedLoopJoinExec, CartesianProductExec, ShuffledHashJoinExec,
  SortMergeJoinExec}
import org.apache.spark.sql.util.QueryExecutionListener
import repro.core.Comprehension._
import repro.core.Translate._
import scala.jdk.CollectionConverters._

/** Exact sizes of compiled target code, counted over the public
  * `TStmt`/`Comp` ADTs (while-loop bodies and conditions included).
  */
final case class IrCounts(stmts: Long, generators: Long, rangeGens: Long,
                          groupBys: Long, lookups: Long) {
  def +(o: IrCounts): IrCounts = IrCounts(stmts + o.stmts, generators + o.generators,
    rangeGens + o.rangeGens, groupBys + o.groupBys, lookups + o.lookups)
}

object IrCounts {
  val zero: IrCounts = IrCounts(0, 0, 0, 0, 0)

  def of(code: List[TStmt]): IrCounts = code.map(of).foldLeft(zero)(_ + _)

  def of(t: TStmt): IrCounts = t match {
    case TInit(_, _)       => IrCounts(1, 0, 0, 0, 0)
    case TAssign(_, c, _)  => IrCounts(1, 0, 0, 0, 0) + of(c)
    case TWhileS(c, body)  => IrCounts(1, 0, 0, 0, 0) + of(c) + of(body)
  }

  def of(c: Comp): IrCounts = c.quals.map {
    case Gen(_, CRange(_, _)) => IrCounts(0, 1, 1, 0, 0)
    case Gen(_, _)            => IrCounts(0, 1, 0, 0, 0)
    case QGroup(_, _)         => IrCounts(0, 0, 0, 1, 0)
    case QLookup(_, _, _, _)  => IrCounts(0, 0, 0, 0, 1)
    case _                    => zero
  }.foldLeft(zero)(_ + _)
}

/** What Spark ran: jobs, stages and tasks from a `SparkListener`, and
  * exchange and join operators from the final (post-AQE) physical plan of
  * every query.
  */
final case class SparkCounts(jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
    taskBusyMs: Long = 0, shuffleWriteBytes: Long = 0, shuffleReadBytes: Long = 0,
    exchanges: Long = 0, smj: Long = 0, shj: Long = 0, bhj: Long = 0,
    nestedLoop: Long = 0, cartesian: Long = 0) {
  def -(o: SparkCounts): SparkCounts = SparkCounts(jobs - o.jobs, stages - o.stages,
    tasks - o.tasks, taskBusyMs - o.taskBusyMs,
    shuffleWriteBytes - o.shuffleWriteBytes, shuffleReadBytes - o.shuffleReadBytes,
    exchanges - o.exchanges, smj - o.smj, shj - o.shj, bhj - o.bhj,
    nestedLoop - o.nestedLoop, cartesian - o.cartesian)
}

final class SparkProbe(spark: SparkSession) extends SparkListener
    with QueryExecutionListener with AdaptiveSparkPlanHelper {

  private var c = SparkCounts()

  override def onJobStart(e: SparkListenerJobStart): Unit =
    synchronized { c = c.copy(jobs = c.jobs + 1) }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    synchronized { c = c.copy(stages = c.stages + 1) }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    c = c.copy(tasks = c.tasks + 1)
    if (m != null) c = c.copy(
      taskBusyMs = c.taskBusyMs + m.executorRunTime,
      shuffleWriteBytes = c.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten,
      shuffleReadBytes = c.shuffleReadBytes + m.shuffleReadMetrics.totalBytesRead)
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    countPlan(qe.executedPlan)

  override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit =
    countPlan(qe.executedPlan)

  /** `collect` of AdaptiveSparkPlanHelper descends into the final adaptive
    * plan and its query stages; a plain tree walk sees only the wrapper.
    */
  private def countPlan(plan: SparkPlan): Unit = {
    def n(pf: PartialFunction[SparkPlan, Unit]): Long = collect(plan)(pf).size.toLong
    val add = SparkCounts(
      exchanges = n { case _: ShuffleExchangeLike | _: BroadcastExchangeLike => },
      smj = n { case _: SortMergeJoinExec => },
      shj = n { case _: ShuffledHashJoinExec => },
      bhj = n { case _: BroadcastHashJoinExec => },
      nestedLoop = n { case _: BroadcastNestedLoopJoinExec => },
      cartesian = n { case _: CartesianProductExec => })
    synchronized {
      c = c.copy(exchanges = c.exchanges + add.exchanges, smj = c.smj + add.smj,
        shj = c.shj + add.shj, bhj = c.bhj + add.bhj,
        nestedLoop = c.nestedLoop + add.nestedLoop, cartesian = c.cartesian + add.cartesian)
    }
  }

  /** Counts so far, after every queued listener event has been handled. */
  def snapshot(): SparkCounts = {
    org.apache.spark.perfbench.ListenerBus.drain(spark.sparkContext)
    synchronized(c)
  }

  def install(): this.type = {
    spark.sparkContext.addSparkListener(this)
    spark.listenerManager.register(this)
    this
  }
}

/** JVM counters: bytes allocated by the calling thread, and time spent in
  * garbage collection.
  */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
}

package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Listener events are delivered asynchronously; the benchmark reads its
  * counters only after the bus is empty. The bus is `private[spark]`, hence
  * this package.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

package org.apache.spark.repro

import org.apache.spark.SparkContext

/** Query-execution listeners are called asynchronously; a test reads what
  * they saw only after the bus is empty. The bus is `private[spark]`, hence
  * this package.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

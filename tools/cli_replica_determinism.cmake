# Runs flowgnn_cli on one stream at --replicas 1 and --replicas 4 and
# fails unless the modeled lines (Avg latency, Stream throughput) are
# byte-identical: they are cycle arithmetic, so the replica count that
# served the stream must not show in them.
#
#   cmake -DCLI=path/to/flowgnn_cli -P cli_replica_determinism.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<flowgnn_cli>")
endif()
foreach(replicas 1 4)
  execute_process(
    COMMAND ${CLI} --model gin --dataset molhiv --graphs 48
            --replicas ${replicas}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "flowgnn_cli --replicas ${replicas} exited ${rc}")
  endif()
  string(REGEX MATCHALL "(Avg latency|Stream throughput):[^\n]*"
         modeled_${replicas} "${out}")
  list(LENGTH modeled_${replicas} n)
  if(NOT n EQUAL 2)
    message(FATAL_ERROR
            "--replicas ${replicas}: expected 2 modeled lines, got ${n}")
  endif()
endforeach()
if(NOT modeled_1 STREQUAL modeled_4)
  message(FATAL_ERROR "modeled lines differ:\n"
                      "  --replicas 1: ${modeled_1}\n"
                      "  --replicas 4: ${modeled_4}")
endif()
message(STATUS "modeled lines match: ${modeled_1}")

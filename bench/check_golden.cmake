# Runs each figure bench and compares its stdout byte for byte with
# bench/golden/<bench>.txt. Invoked by the figure_golden ctest:
#
#   cmake -DBENCH_DIR=<dir with the bench binaries>
#         -DGOLDEN_DIR=<bench/golden> -DBENCHES=fig08_...,fig09_...
#         -P check_golden.cmake
#
# The TALUS_* knobs the benches read are cleared first, so the goldens
# always compare the default scale. A change that moves a figure on
# purpose re-records its golden in the same commit:
#
#   ./build/bench/<bench> > bench/golden/<bench>.txt
foreach(var FULL SCALE INSTR MIXES ACCESSES SEED SHARDS THREADS RECONFIG
            MONITOR_SAMPLE TRACE METRICS)
  unset(ENV{TALUS_${var}})
endforeach()

string(REPLACE "," ";" benches "${BENCHES}")
set(failed "")
foreach(bench IN LISTS benches)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}"
    OUTPUT_VARIABLE got
    RESULT_VARIABLE status)
  file(READ "${GOLDEN_DIR}/${bench}.txt" want)
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${bench} exited with ${status}")
    list(APPEND failed ${bench})
  elseif(NOT got STREQUAL want)
    file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/${bench}.out" "${got}")
    execute_process(
      COMMAND diff -u "${GOLDEN_DIR}/${bench}.txt"
              "${CMAKE_CURRENT_BINARY_DIR}/${bench}.out")
    message(SEND_ERROR "${bench}: stdout differs from its golden")
    list(APPEND failed ${bench})
  else()
    message(STATUS "${bench}: matches its golden")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "figure goldens differ: ${failed}")
endif()

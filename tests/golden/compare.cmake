# Rerun each paper-figure bench, and the deterministic one-sided,
# hardware-broadcast and dynamic-join benches, and compare their stdout byte
# for byte with the snapshot in this directory.
#
#   cmake -DBENCH_DIR=<dir with the bench binaries> -DGOLDEN_DIR=<this dir>
#         -DOUT_DIR=<scratch dir> -P compare.cmake
#
# Simulated results are deterministic, so any difference is a change in
# what the model computes. When a change moves a figure on purpose,
# regenerate the snapshot (`bench_<name> > tests/golden/bench_<name>.txt`)
# and explain every moved digit in EXPERIMENTS.md.
set(benches fig7 fig8 fig9 table1 fig10_latency fig10_bandwidth ablation_cpu
            one_sided hw_bcast dynamic_join)
file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")
foreach(b IN LISTS benches)
  set(out "${OUT_DIR}/bench_${b}.txt")
  execute_process(COMMAND "${BENCH_DIR}/bench_${b}"
                  OUTPUT_FILE "${out}" ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "bench_${b} exited with ${rc}")
    list(APPEND failed ${b})
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${GOLDEN_DIR}/bench_${b}.txt" "${out}" RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    file(READ "${out}" got)
    message(SEND_ERROR "bench_${b} differs from its snapshot; it printed:\n${got}")
    list(APPEND failed ${b})
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "paper figures moved: ${failed}")
endif()
message(STATUS "all ${benches} match their snapshots")

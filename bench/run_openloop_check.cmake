# bench_smoke pipeline runner for the open-loop latency harness: executes
# the generator → replay → checker chain end to end as ONE test. BIN runs
# its reduced smoke row with --trace/--journal dumps, then CHECKER (the
# standalone check_journal tool) validates the dumped pair — so the file
# formats and the checker stay exercised across a process boundary, not
# just in-process.
if(NOT DEFINED BIN OR NOT DEFINED CHECKER OR NOT DEFINED OUTDIR)
  message(FATAL_ERROR
          "run_openloop_check.cmake needs -DBIN= -DCHECKER= -DOUTDIR=")
endif()
file(MAKE_DIRECTORY "${OUTDIR}")
set(prefix "${OUTDIR}/openloop_smoke")
execute_process(
  COMMAND "${BIN}" "--benchmark_filter=BM_openloop/0/"
          --trace "${prefix}" --journal "${prefix}"
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
message("${run_out}")
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "openloop_latency exited with ${run_rc}: ${run_err}")
endif()
if(NOT run_out MATCHES "iterations:1")
  message(FATAL_ERROR "smoke filter matched no benchmark — replay was a no-op")
endif()
if(NOT EXISTS "${prefix}.smoke.trace" OR NOT EXISTS "${prefix}.smoke.journal")
  message(FATAL_ERROR "replay did not dump ${prefix}.smoke.{trace,journal}")
endif()
execute_process(
  COMMAND "${CHECKER}" "${prefix}.smoke.trace" "${prefix}.smoke.journal"
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err
  RESULT_VARIABLE check_rc)
message("${check_out}")
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_journal rejected the dump: ${check_err}")
endif()
if(NOT check_out MATCHES "^OK ")
  message(FATAL_ERROR "check_journal did not report OK: ${check_out}")
endif()

# Runs a CI anchor command with --jobs 1 --json and gates the fresh
# report against its committed BENCH_*.json baseline via
# tools/bench_gate.py. Counters only (--no-time): ctest runs suites in
# parallel, so wall-clock is not comparable here — CI's bench-baseline
# job runs the same gate with the time threshold armed.
#
# Usage: cmake -DBENCH=<anchor argv joined with '|'> -DPYTHON=<python3>
#        -DGATE=<bench_gate.py> -DBASELINE=<BENCH_*.json>
#        -DOUT=<fresh.json> -P BenchGate.cmake

string(REPLACE "|" ";" bench "${BENCH}")
execute_process(COMMAND ${bench} --jobs 1 --json ${OUT}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${BENCH}' exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
execute_process(COMMAND ${PYTHON} ${GATE} ${OUT} ${BASELINE} --no-time
                OUTPUT_VARIABLE gate_out
                ERROR_VARIABLE gate_err
                RESULT_VARIABLE gate_rc)
if(NOT gate_rc EQUAL 0)
  message(FATAL_ERROR "bench gate failed:\n${gate_out}\n${gate_err}")
endif()
message(STATUS "${gate_out}")

# Runs dear_e2e (E2E) with ARGS and passes only when the run fails its
# correctness checks: nonzero exit status and a nonzero error_rate.
execute_process(COMMAND ${E2E} ${ARGS} RESULT_VARIABLE status OUTPUT_VARIABLE output)
message("${output}")
if(status EQUAL 0)
  message(FATAL_ERROR "dear_e2e exited 0 although its pinned digest was wrong")
endif()
if(NOT output MATCHES "\nerror_rate [^ ]+ ([0-9.e+-]+) ")
  message(FATAL_ERROR "dear_e2e printed no error_rate")
endif()
if(CMAKE_MATCH_1 STREQUAL "0")
  message(FATAL_ERROR "dear_e2e reported error_rate 0 although its pinned digest was wrong")
endif()

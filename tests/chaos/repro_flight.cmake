# A chaos flight postmortem's repro: line replays the failure: it carries
# every flag that shaped the run, and re-running it fails again.
#   cmake -DPROGRAM=... -DWORKDIR=... -P repro_flight.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${PROGRAM}" --protocol pm --seed 3 --duration-ms 6000
          --schedule "part(2000-4000;1);crash(3000-5000;n=0)"
          --inject-bug --latency-oracle --fsync-us 200 --flight f.json
  WORKING_DIRECTORY "${WORKDIR}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "run exited with ${rc}, expected 1:\n${out}")
endif()
file(STRINGS "${WORKDIR}/f.txt" repro REGEX "^repro: ")
if(NOT repro MATCHES "^repro: +chaos_fuzz (.*)$")
  message(FATAL_ERROR "f.txt has no chaos_fuzz repro: line")
endif()
set(args "${CMAKE_MATCH_1}")
foreach(flag "--inject-bug" "--latency-oracle" "--fsync-us 200")
  string(FIND "${args}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "repro line lacks ${flag}: ${repro}")
  endif()
endforeach()
separate_arguments(argv UNIX_COMMAND "${args}")
execute_process(COMMAND "${PROGRAM}" ${argv}
  WORKING_DIRECTORY "${WORKDIR}" OUTPUT_VARIABLE replay RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "replayed repro line exited with ${rc}, expected 1:\n${replay}")
endif()

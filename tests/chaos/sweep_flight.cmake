# A fuzz sweep with --flight keeps one postmortem per failing seed: the lowest
# failing seed writes PATH, each later one <stem>.seed<N>.json, each with its
# .txt sibling naming its own seed.
#   cmake -DPROGRAM=... -DWORKDIR=... -P sweep_flight.cmake
# Seeds 9007199254740998 and 9007199254740999 fail under --inject-bug.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${PROGRAM}" --seed 9007199254740993 --runs 7 --inject-bug --flight f.json
  WORKING_DIRECTORY "${WORKDIR}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "sweep exited with ${rc}, expected 1:\n${out}")
endif()
if(NOT out MATCHES "5/7 runs ok")
  message(FATAL_ERROR "expected exactly two failing seeds:\n${out}")
endif()
foreach(pair "f;9007199254740998" "f.seed9007199254740999;9007199254740999")
  list(GET pair 0 stem)
  list(GET pair 1 seed)
  foreach(ext json txt)
    if(NOT EXISTS "${WORKDIR}/${stem}.${ext}")
      message(FATAL_ERROR "missing ${stem}.${ext}")
    endif()
  endforeach()
  file(READ "${WORKDIR}/${stem}.json" json)
  if(NOT json MATCHES "\"seed\": ${seed},")
    message(FATAL_ERROR "${stem}.json does not name seed ${seed}")
  endif()
  file(READ "${WORKDIR}/${stem}.txt" txt)
  if(NOT txt MATCHES "seed ${seed},")
    message(FATAL_ERROR "${stem}.txt does not name seed ${seed}")
  endif()
endforeach()

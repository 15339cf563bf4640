# Drives the paper's §3.3 CLI workflow end to end against a fresh state
# directory: benchmark -> init-model -> load-model -> slurm-config.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
file(WRITE ${WORKDIR}/configs.json
"[{\"cores\": 32, \"threads_per_core\": 1, \"frequency\": 2200000},
  {\"cores\": 32, \"threads_per_core\": 1, \"frequency\": 2500000}]")

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
  set(LAST_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

run_step(${CHRONUS} --workdir ${WORKDIR} --fast benchmark xhpcg --configurations ${WORKDIR}/configs.json)
run_step(${CHRONUS} --workdir ${WORKDIR} init-model --model brute-force --system 1)
run_step(${CHRONUS} --workdir ${WORKDIR} load-model --model 1)
run_step(${CHRONUS} --workdir ${WORKDIR} systems)
if(NOT LAST_OUTPUT MATCHES "EPYC")
  message(FATAL_ERROR "systems listing missing the EPYC entry: ${LAST_OUTPUT}")
endif()
# Resume must skip both configurations.
run_step(${CHRONUS} --workdir ${WORKDIR} --fast benchmark xhpcg --configurations ${WORKDIR}/configs.json --resume)
if(NOT LAST_OUTPUT MATCHES "skipped 2")
  message(FATAL_ERROR "resume did not skip measured configs: ${LAST_OUTPUT}")
endif()

# A random-tree model is pre-loaded as a binary image beside its JSON file,
# and `slurm-config`, run as its own process, answers from the image.
run_step(${CHRONUS} --workdir ${WORKDIR} init-model --model random-tree --system 1)
run_step(${CHRONUS} --workdir ${WORKDIR} load-model --model 2)
set(ETC ${WORKDIR}/etc/chronus)
if(NOT EXISTS ${ETC}/preloaded-model-2.img)
  message(FATAL_ERROR "load-model wrote no model image")
endif()
file(READ ${ETC}/settings.json SETTINGS)
string(JSON KEY MEMBER "${SETTINGS}" preloaded_images 0)
string(JSON IMAGE GET "${SETTINGS}" preloaded_images "${KEY}")
if(NOT IMAGE STREQUAL "preloaded-model-2.img")
  message(FATAL_ERROR "settings do not index the image: ${SETTINGS}")
endif()
string(REPLACE ":" ";" HASHES "${KEY}")
list(GET HASHES 0 SYSTEM_HASH)
list(GET HASHES 1 BINARY_HASH)

run_step(${CHRONUS} --workdir ${WORKDIR} slurm-config ${SYSTEM_HASH} ${BINARY_HASH})
set(ANSWER "${LAST_OUTPUT}")
if(NOT ANSWER MATCHES "\"cores\"")
  message(FATAL_ERROR "slurm-config printed no configuration: ${ANSWER}")
endif()

# With the JSON file unreadable only the image can answer.
file(READ ${ETC}/preloaded-model-2.json MODEL_JSON)
file(WRITE ${ETC}/preloaded-model-2.json "not json")
run_step(${CHRONUS} --workdir ${WORKDIR} slurm-config ${SYSTEM_HASH} ${BINARY_HASH})
if(NOT LAST_OUTPUT STREQUAL ANSWER)
  message(FATAL_ERROR "image answer ${LAST_OUTPUT} differs from ${ANSWER}")
endif()

# A corrupt image is rejected with a warning and the JSON file answers.
file(WRITE ${ETC}/preloaded-model-2.json "${MODEL_JSON}")
file(WRITE ${ETC}/preloaded-model-2.img "ECOMODEL garbage")
execute_process(
  COMMAND ${CHRONUS} --workdir ${WORKDIR} slurm-config ${SYSTEM_HASH} ${BINARY_HASH}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL ANSWER OR NOT err MATCHES "falling back")
  message(FATAL_ERROR "no JSON fallback (${rc}): ${out}\n${err}")
endif()

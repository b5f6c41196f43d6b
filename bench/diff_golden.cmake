# Runs BENCH and compares its stdout with the committed GOLDEN text.
# On a mismatch it prints a unified diff and fails.
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P diff_golden.cmake
execute_process(COMMAND ${BENCH}
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE progress
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} failed (${status}):\n${progress}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${BENCH} NAME)
    set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${name}.out)
    file(WRITE ${actual_file} "${actual}")
    execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
    message(FATAL_ERROR "${name} stdout differs from ${GOLDEN} "
        "(full output: ${actual_file}). If the change is deliberate, "
        "regenerate the golden and say in CHANGES.md which lines moved.")
endif()

# Run one command twice and fail unless both runs exit 0 and print
# byte-identical standard output.
#
#   cmake -DCOMMAND="prog;arg1;arg2" -P same_stdout_twice.cmake
#
# COMMAND is a CMake list (semicolon-separated), so arguments may hold
# spaces.

if(NOT COMMAND)
    message(FATAL_ERROR "same_stdout_twice: set -DCOMMAND=<prog;args>")
endif()

foreach(run 1 2)
    execute_process(COMMAND ${COMMAND}
        OUTPUT_VARIABLE out_${run}
        RESULT_VARIABLE status_${run})
    if(NOT status_${run} EQUAL 0)
        message(FATAL_ERROR
            "run ${run} exited with ${status_${run}}:\n${out_${run}}")
    endif()
endforeach()

if(NOT out_1 STREQUAL out_2)
    message(FATAL_ERROR
        "standard output differs between two runs\n"
        "--- run 1 ---\n${out_1}--- run 2 ---\n${out_2}")
endif()
message(STATUS "identical output:\n${out_1}")

# Runs TOOL once with each malformed flag below. Every run must exit 2
# with the usage text on stderr: no crash, no silent acceptance.
#   cmake -DTOOL=<nol-traffic binary> -P expect_usage.cmake
foreach(args
        "--slots;0" "--slots;4x" "--arrivals;abc" "--arrivals;-5"
        "--arrivals;99999999999" "--seed;12x" "--rate;-1" "--rate;0"
        "--rate;nan" "--rate;inf" "--churn;2" "--churn;-0.1"
        "--alpha;nan" "--network;wifi7" "--rate")
    execute_process(COMMAND ${TOOL} ${args}
        RESULT_VARIABLE status
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT 60)
    if(NOT status STREQUAL "2" OR NOT err MATCHES "usage:")
        string(REPLACE ";" " " shown "${args}")
        message(SEND_ERROR
            "${TOOL} ${shown}: exit status '${status}', stderr:\n${err}")
    endif()
endforeach()

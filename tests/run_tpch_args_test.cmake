# Runs run_tpch with one bad argument at a time and expects exit code 2
# (bad arguments) from each. Usage:
#   cmake -DRUN_TPCH=path/to/run_tpch -P run_tpch_args_test.cmake
foreach(arg --chunk=abc --chunk=0 --clients=abc --queries=-1 --sf=x
            --seed=7x --devices=1,x --split=a --fault-seed=
            --kernel-threads=2.5 --query=7 --query=q6 --sql=3)
  execute_process(COMMAND ${RUN_TPCH} ${arg}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "run_tpch ${arg} exited ${code}, want 2")
  endif()
endforeach()

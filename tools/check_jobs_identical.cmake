# ctest helper: the optimized streaming plan (the one plan step that runs
# in parallel), the injected run and fleet dispatch must serialize to
# byte-identical JSON for every --jobs value. Run as
#   cmake -DDMFSTREAM=<path-to-binary> -P check_jobs_identical.cmake
if(NOT DEFINED DMFSTREAM)
  message(FATAL_ERROR "pass -DDMFSTREAM=<path to dmfstream>")
endif()

function(run_cli out_var)
  execute_process(
    COMMAND ${DMFSTREAM} ${ARGN}
    OUTPUT_VARIABLE output
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "dmfstream ${ARGN} exited with ${status}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

set(stream_args stream --ratio 2:1:1:1:1:1:9 --demand 32 --storage 3
    --optimize --json)
run_cli(stream_jobs1 ${stream_args} --jobs 1)
run_cli(stream_jobs4 ${stream_args} --jobs 4)
if(NOT stream_jobs1 STREQUAL stream_jobs4)
  message(FATAL_ERROR "optimized streaming plan JSON differs between --jobs 1 and --jobs 4")
endif()

# A fault-injected run with a fixed --fault-seed is deterministic too: the
# replay is serial, so --jobs (which parallelizes the optimized planner's
# candidate sweep only) must not change a single byte of the plan + recovery
# JSON.
set(inject_args stream --ratio 2:1:1:1:1:1:9 --demand 32 --storage 3
    --optimize --json
    --inject split=0.3,eps=0.4,loss=0.1,dispense=0.05 --fault-seed 42
    --retry-budget 4)
run_cli(inject_jobs1 ${inject_args} --jobs 1)
run_cli(inject_jobs4 ${inject_args} --jobs 4)
if(NOT inject_jobs1 STREQUAL inject_jobs4)
  message(FATAL_ERROR "injected stream JSON differs between --jobs 1 and --jobs 4")
endif()
if(NOT inject_jobs1 MATCHES "\"recovery\"")
  message(FATAL_ERROR "injected stream JSON lacks the recovery section")
endif()

# Fleet dispatch: planning fans out over --jobs but the dispatch loop is
# serial, so the whole result (placement log included) must be
# byte-identical for every job count.
# '|' separates users ( ';' is the CMake list separator and would split the
# spec into separate CLI arguments).
set(fleet_users "ratio=2:1:1:1:1:1:9,demand=64,storage=3,weight=8|ratio=1:3,demand=32,storage=2|ratio=1:7,demand=24,storage=2")
set(fleet_args fleet --users ${fleet_users} --fleet 4 --policy wfq
    --json --placement)
run_cli(fleet_jobs1 ${fleet_args} --jobs 1)
run_cli(fleet_jobs4 ${fleet_args} --jobs 4)
if(NOT fleet_jobs1 STREQUAL fleet_jobs4)
  message(FATAL_ERROR "fleet dispatch JSON differs between --jobs 1 and --jobs 4")
endif()

# A mid-run chip kill migrates work between chips but never changes the
# per-user plans: the --plans-only projection is byte-identical with and
# without the kill (and across --jobs).
set(fleet_plan_args fleet --users ${fleet_users} --fleet 4 --policy wfq
    --plans-only)
run_cli(fleet_plans_clean ${fleet_plan_args} --jobs 4)
run_cli(fleet_plans_killed ${fleet_plan_args} --jobs 1 --kill chip=1,cycle=40)
if(NOT fleet_plans_clean STREQUAL fleet_plans_killed)
  message(FATAL_ERROR "fleet plans changed under a mid-run chip kill")
endif()

message(STATUS "optimized streaming, injected-recovery and fleet JSON byte-identical across --jobs (and fleet plans across kill/migrate)")

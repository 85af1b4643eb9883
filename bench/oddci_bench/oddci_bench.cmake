# Build of the oddci_bench harness. It is not a CMake project of its own:
# it joins the repository's project, so it links the libraries that build
# makes, with the same settings and options (build type, ODDCI_TRACING,
# ODDCI_SANITIZE, warnings):
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_oddci_INCLUDE=$PWD/bench/oddci_bench/oddci_bench.cmake
#   cmake --build .bench_build --target oddci_bench
#   ctest --test-dir .bench_build -L bench
#
# CMake reads this file right after the root CMakeLists.txt's project();
# the targets are defined once the rest of that file has run.
function(oddci_bench_targets dir)
  add_executable(oddci_bench
    ${dir}/main.cpp
    ${dir}/compare.cpp
    ${dir}/probes.cpp
    ${dir}/simulate.cpp
    ${dir}/workloads.cpp)
  target_include_directories(oddci_bench PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  target_link_libraries(oddci_bench PRIVATE
    oddci::core oddci::analytical oddci::workload oddci::obs oddci::sim
    oddci::util oddci_warnings)

  add_test(NAME oddci_bench_quick
    COMMAND oddci_bench run --quick --trace --seed 1
            --trace-dir ${CMAKE_BINARY_DIR})
  set_tests_properties(oddci_bench_quick PROPERTIES LABELS bench TIMEOUT 60)
endfunction()

enable_testing()
set(_oddci_bench_dir ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL oddci_bench_targets ${_oddci_bench_dir})

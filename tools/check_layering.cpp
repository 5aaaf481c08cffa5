/**
 * @file
 * CLI for the include-layering lint (flowgnn::check leg 2): scans a
 * source root's #include graph and checks it against a layer spec.
 * All logic lives in tools/check/layering.{h,cpp} so the fixture tests
 * exercise exactly what CI runs.
 *
 * Usage: check_layering <src-root> <layer-spec>
 * Exit:  0 clean, 1 violations (chains printed), 2 bad usage/spec.
 */
#include <iostream>

#include "check/layering.h"

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: check_layering <src-root> <layer-spec>\n";
        return 2;
    }
    return flowgnn::check::run_layering_check(argv[1], argv[2],
                                              std::cout);
}

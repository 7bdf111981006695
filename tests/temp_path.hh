/**
 * @file
 * Per-test temporary file paths.  ctest runs each gtest case as its own
 * process, several at a time, so a fixed file name under TempDir()
 * lets one case remove or rewrite a file while another reads it.  The
 * running test's full name plus the process id make every path private
 * to one case.
 */

#ifndef DIR2B_TESTS_TEMP_PATH_HH
#define DIR2B_TESTS_TEMP_PATH_HH

#include <algorithm>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

namespace dir2b
{

/** TempDir()/<suite>.<test>.<pid>.<file>, with the '/' of
 *  parameterised test names replaced. */
inline std::string
testTempPath(const std::string &file)
{
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : "no_test";
    std::replace(test.begin(), test.end(), '/', '_');
    return testing::TempDir() + test + "." + std::to_string(getpid()) +
           "." + file;
}

} // namespace dir2b

#endif // DIR2B_TESTS_TEMP_PATH_HH

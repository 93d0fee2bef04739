# Copyright 2026 the ustdb authors.
#
# Writes the source that names the build's git revision (obs::CommonMeta
# reads it). Run as a build step on every build:
#
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<file.cc> -P cmake/git_sha.cmake
#
# The file is rewritten only when its content changes, so a rebuild at the
# same commit compiles nothing and one after a new commit compiles this
# one file. Outside a git checkout the revision reads "unknown".

execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()

set(content "// Generated by cmake/git_sha.cmake at build time.
namespace ustdb::obs::internal {
extern const char kGitSha[] = \"${sha}\";
}  // namespace ustdb::obs::internal
")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUTPUT} "${content}")
endif()

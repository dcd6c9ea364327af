// Artifact writes that report failure.
//
// Every report, trace and bundle file the tools write goes through one of
// these, so a bad path or a full disk makes the write return false (and the
// tool exit non-zero) instead of leaving a truncated file behind a success
// message.

#ifndef SRC_BASE_FILE_H_
#define SRC_BASE_FILE_H_

#include <cstdio>
#include <string>

namespace emeralds {

// Writes `text` to `path`, replacing the file. False if the open, the write
// or the close fails.
bool WriteTextFile(const std::string& path, const std::string& text);

// Closes a stream opened for writing. False if any write on it failed or
// the close fails: fclose flushes the buffer, so a full disk often shows
// only there.
bool CloseWrittenFile(std::FILE* f);

}  // namespace emeralds

#endif  // SRC_BASE_FILE_H_

// Whole-file I/O with a crash-safe atomic write path.
//
// AtomicWriteFile is the single write primitive behind checkpoints and
// model files: content lands in "<path>.tmp", is fsync'd, and is then
// rename(2)'d over the destination, so a crash at any byte offset leaves
// either the complete previous file or the complete new one — never a torn
// mix. The containing directory is fsync'd after the rename so the new
// directory entry itself survives a power loss.
#ifndef KT_CORE_FILEIO_H_
#define KT_CORE_FILEIO_H_

#include <string>

#include "core/status.h"

namespace kt {

// Reads the entire file into `*out`. NotFound if the file cannot be opened.
Status ReadFileToString(const std::string& path, std::string* out);

// Atomically replaces `path` with `contents` (tmp file + fsync + rename).
Status AtomicWriteFile(const std::string& path, const std::string& contents);

// True if `path` exists and is a regular file.
bool FileExists(const std::string& path);

// mkdir -p: creates every missing component of `path` (mode 0755). An
// existing directory is success.
bool MakeDirs(const std::string& path);

}  // namespace kt

#endif  // KT_CORE_FILEIO_H_

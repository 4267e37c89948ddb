#include "core/fileio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace kt {
namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

// Writes all of `contents` to `fd`, retrying short writes.
bool WriteAll(int fd, const std::string& contents) {
  const char* data = contents.data();
  size_t left = contents.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

// fsync the directory containing `path` so the rename itself is durable.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);  // best-effort; some filesystems refuse directory fsync
    ::close(fd);
  }
}

}  // namespace

Status ReadFileToString(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound(ErrnoMessage("cannot open", path));
  out->clear();
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IoError(ErrnoMessage("read failed", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out->append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("cannot create", tmp));
  if (!WriteAll(fd, contents)) {
    const Status status = Status::IoError(ErrnoMessage("write failed", tmp));
    ::close(fd);
    std::remove(tmp.c_str());
    return status;
  }
  if (::fsync(fd) != 0) {
    const Status status = Status::IoError(ErrnoMessage("fsync failed", tmp));
    ::close(fd);
    std::remove(tmp.c_str());
    return status;
  }
  if (::close(fd) != 0) {
    const Status status = Status::IoError(ErrnoMessage("close failed", tmp));
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = Status::IoError(ErrnoMessage("rename failed", tmp));
    std::remove(tmp.c_str());
    return status;
  }
  SyncParentDir(path);
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

bool MakeDirs(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix.push_back(path[i]);
      continue;
    }
    if (!prefix.empty() &&
        ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
    if (i < path.size()) prefix.push_back('/');
  }
  return true;
}

}  // namespace kt

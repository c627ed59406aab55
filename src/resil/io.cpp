#include "resil/io.h"

#include <cstdio>
#include <sstream>
#include <sys/stat.h>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "resil/fault.h"
#include "util/common.h"
#include "util/textio.h"

namespace tx::resil {

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

void fsync_parent_dir(const std::string& path) {
#ifndef _WIN32
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);  // best-effort: rename durability, not correctness
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

bool atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";

  if (fault::fail_write_open(path)) {
    // Simulate a failure partway through writing the temp file: leave a torn
    // temp behind, exactly what a crashed writer would.
    if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
      std::fwrite(content.data(), 1, content.size() / 2, f);
      std::fclose(f);
    }
    return false;
  }

  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  if (written != content.size() || std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return false;
  }
#ifndef _WIN32
  ::fsync(::fileno(f));
#endif
  std::fclose(f);

  if (fault::fail_write_rename(path)) {
    // Simulate a kill between temp write and rename: the complete temp file
    // stays on disk but the destination is untouched.
    return false;
  }

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (ok) *out = std::move(data);
  return ok;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void Bundle::set(const std::string& name, std::string bytes) {
  TX_CHECK(!name.empty() && name.find_first_of(" \n") == std::string::npos,
           "Bundle: section name '", name, "' is empty or has whitespace");
  sections_[name] = std::move(bytes);
}

bool Bundle::has(const std::string& name) const {
  return sections_.count(name) > 0;
}

const std::string& Bundle::get(const std::string& name) const {
  auto it = sections_.find(name);
  TX_CHECK(it != sections_.end(), "Bundle: no section named '", name, "'");
  return it->second;
}

std::vector<std::string> Bundle::names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& [name, _] : sections_) out.push_back(name);
  return out;
}

std::string Bundle::serialize() const {
  std::string body = "tx.ckpt.v1 " + std::to_string(sections_.size()) + "\n";
  for (const auto& [name, bytes] : sections_) {
    body += "@ " + name + " " + std::to_string(bytes.size()) + "\n";
    body += bytes;
    body += '\n';
  }
  char footer[32];
  std::snprintf(footer, sizeof(footer), "@checksum %016llx\n",
                static_cast<unsigned long long>(fnv1a64(body)));
  return body + footer;
}

Bundle Bundle::deserialize(const std::string& data) {
  // Split off and verify the footer first: everything before it is covered
  // by the checksum, so truncation or bit rot anywhere fails here.
  const std::string footer_tag = "@checksum ";
  // The footer is fixed-width: tag + 16 hex digits + newline, flush at the
  // end of the file. Anything else — including a missing final newline — is
  // treated as truncation.
  const std::size_t footer_size = footer_tag.size() + 17;
  TX_CHECK(data.size() > footer_size && data.back() == '\n' &&
               data.compare(data.size() - footer_size, footer_tag.size(),
                            footer_tag) == 0,
           "tx.ckpt.v1: missing or truncated checksum footer");
  const std::size_t footer = data.size() - footer_size;
  const std::string hex = data.substr(footer + footer_tag.size(), 16);
  char* end = nullptr;
  const std::uint64_t want = std::strtoull(hex.c_str(), &end, 16);
  TX_CHECK(end == hex.c_str() + 16, "tx.ckpt.v1: malformed checksum footer");
  const std::string body = data.substr(0, footer);
  TX_CHECK(fnv1a64(body) == want, "tx.ckpt.v1: checksum mismatch — file is ",
           "truncated or corrupt");

  std::size_t pos = 0;
  const auto read_line = [&](const char* what) {
    const std::size_t nl = body.find('\n', pos);
    TX_CHECK(nl != std::string::npos, "tx.ckpt.v1: truncated ", what);
    std::string line = body.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  // Header lines are whole tokens, nothing after them: "1junk" is not 1.
  std::string rest;
  std::istringstream header(read_line("header"));
  textio::expect_tag(header, "tx.ckpt.v1");
  const std::int64_t count = textio::read_int(header, "section count");
  TX_CHECK(count >= 0 && !(header >> rest), "tx.ckpt.v1: bad header");

  Bundle b;
  for (std::int64_t i = 0; i < count; ++i) {
    std::istringstream section(read_line("section header"));
    textio::expect_tag(section, "@");
    const std::string name = textio::next_token(section, "section name");
    const std::int64_t nbytes = textio::read_int(section, "section size");
    TX_CHECK(nbytes >= 0 && !(section >> rest),
             "tx.ckpt.v1: bad section header");
    // serialize() writes each name once, in map order; anything else would
    // let a later duplicate silently replace a section.
    TX_CHECK(b.sections_.empty() || b.sections_.rbegin()->first < name,
             "tx.ckpt.v1: section '", name, "' duplicated or out of order");
    TX_CHECK(pos + static_cast<std::size_t>(nbytes) < body.size() &&
                 body[pos + static_cast<std::size_t>(nbytes)] == '\n',
             "tx.ckpt.v1: truncated section '", name, "'");
    b.sections_[name] = body.substr(pos, static_cast<std::size_t>(nbytes));
    pos += static_cast<std::size_t>(nbytes) + 1;
  }
  TX_CHECK(pos == body.size(), "tx.ckpt.v1: trailing bytes after sections");
  return b;
}

bool Bundle::write_file(const std::string& path) const {
  return atomic_write_file(path, serialize());
}

Bundle Bundle::read_file(const std::string& path) {
  std::string data;
  TX_CHECK(resil::read_file(path, &data), "tx.ckpt.v1: cannot read ", path);
  return deserialize(data);
}

std::string generator_bytes(const Generator& gen) {
  std::ostringstream os;
  gen.save(os);
  return os.str();
}

void apply_generator_bytes(const std::string& bytes, Generator& gen) {
  std::istringstream is(bytes);
  Generator staged = gen;
  staged.load(is);
  TX_CHECK(!is.fail(), "tx.ckpt.v1: corrupt generator state");
  gen = staged;
}

}  // namespace tx::resil

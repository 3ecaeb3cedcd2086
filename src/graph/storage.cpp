#include "graph/storage.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iomanip>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace cobra::graph {

void check_csr_fits(const std::string& what, double n, double m) {
  const double bytes = 8.0 * (n + 1.0) + 4.0 * 2.0 * m;
  // The smaller of physical memory and the address-space limit; an
  // unknown or unlimited one refuses nothing.
  double limit = std::numeric_limits<double>::infinity();
  const char* limit_name = nullptr;
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_size > 0) {
    limit = static_cast<double>(pages) * static_cast<double>(page_size);
    limit_name = "physical memory";
  }
  struct rlimit address_space{};
  if (::getrlimit(RLIMIT_AS, &address_space) == 0 &&
      address_space.rlim_cur != RLIM_INFINITY &&
      static_cast<double>(address_space.rlim_cur) < limit) {
    limit = static_cast<double>(address_space.rlim_cur);
    limit_name = "address space allowed by ulimit -v (RLIMIT_AS)";
  }
  COBRA_CHECK_MSG(bytes <= limit,
                  what << " needs an estimated " << std::fixed
                       << std::setprecision(1) << bytes / 1e9
                       << " GB for its CSR (8(n+1) + 8m bytes), "
                       << "more than the " << limit / 1e9 << " GB of "
                       << limit_name << " here");
}

MappedFile MappedFile::open_read(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  COBRA_CHECK_MSG(fd >= 0, "cannot open " << path << " for mapping: "
                                          << std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    COBRA_CHECK_MSG(false,
                    "cannot stat " << path << ": " << std::strerror(err));
  }
  MappedFile mapped;
  mapped.path_ = path;
  mapped.size_ = static_cast<std::size_t>(st.st_size);
  if (mapped.size_ > 0) {
    void* addr = ::mmap(nullptr, mapped.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      COBRA_CHECK_MSG(false,
                      "cannot mmap " << path << ": " << std::strerror(err));
    }
    mapped.data_ = static_cast<const std::byte*>(addr);
  }
  // The mapping holds its own reference to the file; the descriptor is
  // not needed once mmap succeeded.
  ::close(fd);
  return mapped;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr)
      ::munmap(const_cast<std::byte*>(data_), size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<std::byte*>(data_), size_);
}

}  // namespace cobra::graph

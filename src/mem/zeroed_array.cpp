#include "mem/zeroed_array.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define PRDMA_HAVE_MMAP 1
#endif

namespace prdma::mem::detail {

#ifdef PRDMA_HAVE_MMAP

namespace {

/// Released mappings of one thread, kept for reuse. Mapping afresh is
/// far slower than reusing (on a VM, ~10 µs against none), and each
/// simulated cell declares its tables again.
struct SpareMappings {
  static constexpr int kMax = 8;
  struct Mapping {
    void* p;
    std::size_t bytes;
  };
  Mapping spare[kMax];
  int count = 0;

  ~SpareMappings() {
    for (int i = 0; i < count; ++i) ::munmap(spare[i].p, spare[i].bytes);
  }
};

thread_local SpareMappings t_spare;

}  // namespace

void* map_zero_pages(std::size_t bytes) {
  SpareMappings& s = t_spare;
  for (int i = 0; i < s.count; ++i) {
    if (s.spare[i].bytes == bytes) {
      void* p = s.spare[i].p;
      s.spare[i] = s.spare[--s.count];
      return p;
    }
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

void unmap_zero_pages(void* p, std::size_t bytes) {
  SpareMappings& s = t_spare;
  // Dropped pages of a private anonymous mapping read as zeros again.
  if (s.count < SpareMappings::kMax &&
      ::madvise(p, bytes, MADV_DONTNEED) == 0) {
    s.spare[s.count++] = SpareMappings::Mapping{p, bytes};
    return;
  }
  ::munmap(p, bytes);
}

#else

void* map_zero_pages(std::size_t) { return nullptr; }
void unmap_zero_pages(void*, std::size_t) {}

#endif

}  // namespace prdma::mem::detail

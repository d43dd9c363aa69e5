#include "epiphany/external_memory.hpp"

#include <sys/mman.h>

#include <new>

namespace esarp::ep {

ExternalMemory::ExternalMemory(std::size_t bytes) : size_(bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
  // Keep residency at page granularity whatever the host's huge-page
  // policy: a touched byte must not pull in a 2 MiB page.
  madvise(p, bytes, MADV_NOHUGEPAGE);
#endif
  data_ = static_cast<std::byte*>(p);
}

ExternalMemory::~ExternalMemory() { munmap(data_, size_); }

} // namespace esarp::ep

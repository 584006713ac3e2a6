// corm-raw-new fixture: clean control — placement new, deleted functions,
// operator declarations, and comment/string mentions must all stay silent.
// The old grep rule false-positived on several of these.
#include <cstddef>

struct Pod {
  int x = 0;

  // Deleted functions are not delete expressions.
  Pod(const Pod&) = delete;
  Pod& operator=(const Pod&) = delete;

  // Allocation-function *declarations* are not allocation sites.
  static void* operator new(std::size_t size);
  static void operator delete(void* p);
};

// Placement new constructs in place; it does not allocate.
Pod* ConstructAt(void* buf) {
  return new (buf) Pod;
}

// Comment mentions must not fire: we could new Foo() here, or delete p.
/* Block comments either: new Pod[8]; delete[] arr; */
const char* Describe() {
  return "new Pod() and delete p inside a string literal";
}

// Member names that merely start with `new`/`delete` are identifiers, not
// keywords; the old grep rule read `config_.delete_fraction` as a delete.
struct Knobs {
  double delete_fraction = 0.1;
  unsigned new_size = 0;
};

double DeleteShare(const Knobs& cfg) { return cfg.delete_fraction; }

unsigned Grow(Knobs* x) {
  x->new_size = x->new_size * 2;
  return x->new_size;
}

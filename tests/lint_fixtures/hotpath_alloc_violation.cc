// corm-hotpath
// corm-hotpath-alloc fixture: explicit allocation calls, implicit container
// growth, and std::function construction must all fire inside a file that
// carries the hotpath marker above. An allocating `new` fires corm-raw-new
// as well:
// EXPECT-LINE 22: corm-raw-new
#include <functional>
#include <string>
#include <vector>

struct Request {
  std::vector<int> payload;
  std::string tag;
};

void HandleOp(Request* req, int v, const char* suffix) {
  auto buf = std::make_unique<char[]>(64);  // EXPECT: corm-hotpath-alloc
  void* raw = malloc(64);                   // EXPECT: corm-hotpath-alloc
  void* zeroed = calloc(8, 8);              // EXPECT: corm-hotpath-alloc
  raw = realloc(raw, 128);                  // EXPECT: corm-hotpath-alloc
  auto shared = std::make_shared<int>(v);   // EXPECT: corm-hotpath-alloc
  Request* extra = new Request();           // EXPECT: corm-hotpath-alloc
  (void)buf;
  (void)raw;

  // Implicit allocations: amortized growth is still growth on the hot path.
  req->payload.push_back(v);   // EXPECT: corm-hotpath-alloc
  req->payload.resize(128);    // EXPECT: corm-hotpath-alloc
  req->tag.append(suffix);     // EXPECT: corm-hotpath-alloc

  // Capturing lambdas converted to std::function heap-allocate the closure.
  std::function<void()> cb = [req] { req->payload.clear(); };  // EXPECT: corm-hotpath-alloc
  cb();
}
